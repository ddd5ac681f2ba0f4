/**
 * @file
 * Layer replay: each layer's public entry point driven standalone, in
 * a private Simulator, with the request shape of one workload, and
 * timed with the host clock. The result is host ns per call of that
 * layer; multiplied by the calls per IO the full run made, it is the
 * share of the run's host time the layer explains on its own.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstddef>

#include "workloads.hh"

namespace perfbench {

/** Host ns per call of each replayed entry point. */
struct ReplayCosts
{
    double eventPop = 0.0;       ///< EventQueue schedule + pop
    double schedSwitch = 0.0;    ///< Scheduler runFor round trip
    double packetIdle = 0.0;     ///< Fabric send, idle path
    double packetContended = 0.0;///< Fabric send, 8-way burst
    double readCommand = 0.0;    ///< Controller 4 KiB read
    double writeCommand = 0.0;   ///< Controller 4 KiB write
    double nandOp = 0.0;         ///< NandArray page read
};

/**
 * Replay every layer of @p def. @p pending is the standing event
 * population of the event-queue replay (the workload's median queue
 * depth); @p budget_ns bounds the host time spent per layer.
 */
ReplayCosts replayLayers(const WorkloadDef &def, std::size_t pending,
                         std::uint64_t budget_ns);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
