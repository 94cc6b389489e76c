// The benchmark's own output checks. They recompute each property from
// the loop, the machine description and the paper's rules, sharing no
// code with the scheduler, the validator or the simulator they check,
// so a fault in one of those cannot hide itself here. selftest.cpp
// proves each check rejects a broken input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/schedule.hpp"
#include "serve/message.hpp"
#include "spmt/reference.hpp"
#include "spmt/sim.hpp"

namespace perfbench {

/// ResII from the machine's unit counts: the larger of ceil(ops / issue
/// width) and, per functional-unit class, ceil(unit-cycles / units).
int res_ii_bound(const tms::ir::Loop& loop, const tms::machine::MachineModel& mach);

/// Re-checks a modulo schedule given as II plus one slot per node:
///   - every slot is in [0, II * stages);
///   - every DDG edge keeps slot(dst) - slot(src) >= delay - II * distance,
///     where delay is the producer's latency for a flow dependence, 0 for
///     an anti dependence, 1 for an output dependence, and 0 for a
///     loop-carried memory dependence (speculated, Section 4.1);
///   - no kernel row issues more ops than the issue width and no
///     functional-unit class is over its unit count in any row mod II
///     (non-pipelined ops hold their unit for their occupancy);
///   - II >= res_ii_bound.
/// Returns the first violation, or nullopt when the schedule holds.
std::optional<std::string> recheck_schedule(const tms::ir::Loop& loop,
                                            const tms::machine::MachineModel& mach, int ii,
                                            const std::vector<int>& slots);

/// The slots of a complete schedule, indexed by node id.
std::vector<int> slots_of(const tms::sched::Schedule& s);

/// Checks one SpMT simulation of `iterations` source iterations of a
/// kernel with `stage_count` stages against the sequential reference of
/// the same loop and address streams, and against laws the execution
/// model must obey:
///   - committed memory image and value fingerprint equal the reference's;
///   - threads_committed = N + stages - 1;
///   - instances_executed = N * |loop|;
///   - squashed_cycles >= misspeculations * C_inv;
///   - total_cycles >= threads_committed * C_ci (commits are sequential);
///   - total_cycles >= (threads_committed - 1) * C_spn (so are spawns).
std::optional<std::string> check_simulation(const tms::ir::Loop& loop, int stage_count,
                                            const tms::machine::SpmtConfig& cfg,
                                            std::int64_t iterations,
                                            const tms::spmt::SpmtResult& result,
                                            const tms::spmt::ReferenceResult& reference);

/// The schedule a fresh tms_schedule returns for a (loop, configuration)
/// key: what every served response for that key must carry.
struct ExpectedSchedule {
  int ii = 0;
  int mii = 0;
  int c_delay_threshold = -1;
  double p_max = -1.0;
  std::vector<int> slots;
};

/// Checks a served response: it is a schedule, it passes recheck_schedule
/// against the loop the client sent, and it equals `expected`.
std::optional<std::string> check_response(const tms::ir::Loop& sent,
                                          const tms::machine::MachineModel& mach,
                                          const tms::serve::Response& resp,
                                          const ExpectedSchedule& expected);

}  // namespace perfbench
