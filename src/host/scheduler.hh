/**
 * @file
 * The host CPU scheduler: a CFS-like fair class plus a FIFO real-time
 * class over per-CPU runqueues, with the specific Linux 4.7-era
 * behaviours the paper's pathologies hinge on:
 *
 *  - wakeup preemption gated by sysctl_sched_wakeup_granularity: a
 *    woken I/O-bound task does NOT preempt a running CPU hog until
 *    the hog's vruntime leads by the granularity, so a freshly
 *    migrated hog can make an I/O task wait out most of a slice
 *    (the Fig. 6 multi-millisecond tail);
 *  - idle (newidle) and periodic load balancing that migrate CPU-bound
 *    tasks onto cores whose I/O-bound tasks are blocked in I/O wait
 *    (Section IV-C);
 *  - isolcpus masks removing CPUs from placement and balancing;
 *  - nohz_full reducing the 1000 Hz tick to 1 Hz on isolated cores;
 *  - rcu_nocbs offloading RCU softirq bursts to housekeeping cores;
 *  - c-state exit latency on interrupt delivery to idle cores, with
 *    processor.max_cstate / idle=poll overrides;
 *  - SCHED_FIFO (chrt) preempting any fair task immediately;
 *  - context-switch and cache-pollution costs, and hyper-thread
 *    throughput sharing between sibling logical CPUs.
 *
 * Tasks are driven through an async API: runFor(task, work, on_done)
 * makes a blocked task runnable with a CPU-work segment; on_done fires
 * once the work has actually executed (including every queueing,
 * preemption, interrupt and tick delay in between). interrupt()
 * injects hardirq work that steals the CPU from whatever runs there.
 */

#ifndef AFA_HOST_SCHEDULER_HH
#define AFA_HOST_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "host/cpu_topology.hh"
#include "host/kernel_config.hh"
#include "sim/sim_object.hh"
#include "sim/trace.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::host {

/** Identifies a task. */
using TaskId = std::uint32_t;
constexpr TaskId kNoTask = 0xffffffffu;

/** Scheduling class. */
enum class SchedClass : std::uint8_t {
    Fair,     ///< CFS
    RealTime, ///< SCHED_FIFO
};

/** Task lifecycle state. */
enum class TaskState : std::uint8_t {
    Blocked,  ///< waiting (I/O wait or sleeping)
    Runnable, ///< on a runqueue
    Running,  ///< on a CPU
};

/** Affinity mask over logical CPUs (bit n = cpu n). */
using CpuMask = std::uint64_t;
constexpr CpuMask kAllCpus = ~CpuMask(0);

/** Build a mask from a CpuSet. */
CpuMask maskFromSet(const CpuSet &cpus);

/** Creation-time task attributes. */
struct TaskParams
{
    std::string name;
    SchedClass klass = SchedClass::Fair;
    int nice = 0;        ///< fair class: -20..19
    int rtPriority = 0;  ///< RT class: 1..99
    CpuMask affinity = kAllCpus;
    /** Record obs sched-wait spans for this task's dispatches. Set
     *  only for latency-measured tasks (the fio threads), so CPU-hog
     *  background tasks do not drown the sched_wait stage. */
    bool traceSpans = false;
};

/** Per-task statistics. */
struct TaskStats
{
    Tick cpuTime = 0;       ///< work executed
    Tick waitTime = 0;      ///< runnable-but-not-running time
    std::uint64_t segments = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
    Tick worstWait = 0;     ///< longest single runnable wait
};

/** Per-CPU statistics. */
struct CpuStats
{
    Tick busyTime = 0;
    Tick irqTime = 0;
    std::uint64_t switches = 0;
    std::uint64_t ticks = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t pulls = 0;      ///< tasks pulled by balancing
    std::uint64_t cstateWakes = 0;
    Tick cstateExitDelay = 0;
};

/** The scheduler. */
class Scheduler : public afa::sim::SimObject
{
  public:
    Scheduler(afa::sim::Simulator &simulator, std::string sched_name,
              const CpuTopology &topology, const KernelConfig &config,
              afa::sim::Tracer *tracer = nullptr);

    /** Create a task (initially Blocked). */
    TaskId createTask(const TaskParams &params);

    /**
     * Give a blocked task a CPU-work segment. The task becomes
     * runnable, is placed on a CPU, executes @p work of CPU time
     * (spread across preemptions/interrupts as needed) and then
     * blocks again; @p on_done fires at that instant.
     */
    void runFor(TaskId task, Tick work, afa::sim::EventFn on_done);

    /** chrt: change scheduling class/priority at runtime. */
    void setRealTime(TaskId task, int rt_priority);
    void setFair(TaskId task, int nice);

    /** sched_setaffinity. */
    void setAffinity(TaskId task, CpuMask mask);

    /**
     * Inject hardirq work on @p cpu: wakes the CPU out of any
     * c-state, occupies it for @p duration (stealing time from the
     * running task) and then runs @p handler in irq context.
     */
    void interrupt(unsigned cpu, Tick duration,
                   afa::sim::EventFn handler);

    /** Begin ticks, RCU noise, and the periodic load balancer. */
    void start();

    /** Current state of a task. */
    TaskState taskState(TaskId task) const;

    /** CPU the task is (last) associated with. */
    unsigned taskCpu(TaskId task) const;

    /** True when the CPU runs nothing and has an empty runqueue. */
    bool cpuIdle(unsigned cpu) const;

    /** Number of runnable-or-running tasks associated with a CPU. */
    unsigned cpuLoad(unsigned cpu) const;

    const TaskStats &taskStats(TaskId task) const;
    const CpuStats &cpuStats(unsigned cpu) const;
    const CpuTopology &topology() const { return topo; }
    const KernelConfig &config() const { return kcfg; }

    /** Runtime-mutable kernel config (tests tweak knobs). */
    KernelConfig &mutableConfig() { return kcfg; }

    /** Attach (or detach, with nullptr) the obs span log. */
    void setSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

  private:
    struct Task
    {
        TaskParams params;
        TaskState state = TaskState::Blocked;
        double vruntime = 0.0;
        double weight = 1024.0;
        unsigned cpu = 0;
        bool everPlaced = false;
        Tick remaining = 0;          ///< work left in the segment
        afa::sim::EventFn onDone;
        afa::sim::EventHandle segEvent;
        Tick segStart = 0;           ///< when the current burst began
        double segRate = 1.0;        ///< wall ticks per work tick
        Tick runnableSince = 0;
        TaskStats stats;
    };

    struct Cpu
    {
        TaskId current = kNoTask;
        Tick currentStarted = 0;
        /// CFS runqueue: sorted ascending by (vruntime, id). A flat
        /// vector: runqueues hold a handful of tasks, so shifting on
        /// insert is cheaper than a tree node per enqueue, and the
        /// capacity is reused instead of allocated on every wakeup.
        std::vector<std::pair<double, TaskId>> fairQueue;
        /// FIFO runqueue ordered by priority (higher first), FIFO
        /// within a priority.
        std::vector<TaskId> rtQueue;
        double minVruntime = 0.0;
        TaskId lastTask = kNoTask;   ///< for cache pollution
        Tick irqBusyUntil = 0;
        Tick idleSince = 0;
        unsigned cstate = 0;         ///< current sleep state (0/1/6)
        Tick lastIdleLen = 0;        ///< menu governor history
        afa::sim::EventHandle tickEvent;
        CpuStats stats;
    };

    CpuTopology topo;
    KernelConfig kcfg;
    afa::sim::Tracer *tracer;
    afa::obs::SpanLog *spanLog = nullptr;
    std::vector<Task> tasks;
    std::vector<Cpu> cpus;
    bool started;

    // --- core machinery -------------------------------------------
    Task &task(TaskId id);
    const Task &task(TaskId id) const;
    void enqueue(unsigned cpu, TaskId id, bool renormalize);
    void dequeueFromRq(unsigned cpu, TaskId id);
    void wake(TaskId id);
    unsigned choosePlacement(const Task &t) const;
    void dispatch(unsigned cpu);
    TaskId pickNext(unsigned cpu);
    void startRunning(unsigned cpu, TaskId id);
    void stopRunning(unsigned cpu, bool requeue);
    void accountRunning(unsigned cpu);
    void segmentComplete(unsigned cpu, TaskId id);
    void rescheduleSegment(unsigned cpu, Tick not_before);
    bool wouldPreempt(const Task &woken, const Task &curr) const;
    void checkPreemption(unsigned cpu);
    double vruntimeDelta(const Task &t, Tick work) const;
    double execRate(unsigned cpu, const Task &t) const;
    Tick sliceFor(unsigned cpu, const Task &t) const;
    bool isIsolated(unsigned cpu) const;

    // --- periodic machinery ----------------------------------------
    void scheduleTick(unsigned cpu);
    void onTick(unsigned cpu);
    void scheduleRcu(unsigned cpu);
    void balance();
    void idleBalance(unsigned cpu);
    bool tryPull(unsigned to_cpu);

    // --- c-states ---------------------------------------------------
    void enterIdle(unsigned cpu);
    Tick wakeFromIdle(unsigned cpu);

    void trace(const char *category, std::string message);
    /** Gate for strfmt at trace() call sites: build the message only
     *  when someone will keep it. */
    bool tracing(const char *category) const;
    void checkTaskId(TaskId id) const;
};

} // namespace afa::host

#endif // AFA_HOST_SCHEDULER_HH
