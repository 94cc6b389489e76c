#include "checks.hpp"

#include <algorithm>

namespace perfbench {

namespace {

using tms::ir::DepKind;
using tms::ir::DepType;

int edge_delay(const tms::ir::Loop& loop, const tms::machine::MachineModel& mach,
               const tms::ir::DepEdge& e) {
  if (e.kind == DepKind::kMemory && e.distance >= 1) return 0;
  switch (e.type) {
    case DepType::kFlow: return mach.latency(loop.instr(e.src).op);
    case DepType::kAnti: return 0;
    case DepType::kOutput: return 1;
  }
  return 1;
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

std::string edge_text(const tms::ir::Loop& loop, const tms::ir::DepEdge& e) {
  return loop.instr(e.src).name + "->" + loop.instr(e.dst).name;
}

}  // namespace

int res_ii_bound(const tms::ir::Loop& loop, const tms::machine::MachineModel& mach) {
  int issued = 0;
  std::vector<int> unit_cycles(tms::ir::kNumFuClasses, 0);
  for (const tms::ir::Instr& in : loop.instrs()) {
    const tms::ir::FuClass fc = tms::ir::fu_class(in.op);
    if (fc == tms::ir::FuClass::kNone) continue;
    ++issued;
    unit_cycles[static_cast<std::size_t>(fc)] += mach.occupancy(in.op);
  }
  int bound = std::max(1, ceil_div(issued, mach.issue_width()));
  for (int fc = 0; fc < tms::ir::kNumFuClasses; ++fc) {
    const auto cls = static_cast<tms::ir::FuClass>(fc);
    if (cls == tms::ir::FuClass::kNone || unit_cycles[static_cast<std::size_t>(fc)] == 0) continue;
    const int units = mach.fu_count(cls);
    if (units <= 0) return 1 << 30;  // no unit can run these ops
    bound = std::max(bound, ceil_div(unit_cycles[static_cast<std::size_t>(fc)], units));
  }
  return bound;
}

std::optional<std::string> recheck_schedule(const tms::ir::Loop& loop,
                                            const tms::machine::MachineModel& mach, int ii,
                                            const std::vector<int>& slots) {
  const int n = loop.num_instrs();
  if (ii < 1) return "II " + std::to_string(ii) + " < 1";
  if (static_cast<int>(slots.size()) != n) {
    return "schedule has " + std::to_string(slots.size()) + " slots for " + std::to_string(n) +
           " instructions";
  }
  for (int v = 0; v < n; ++v) {
    if (slots[static_cast<std::size_t>(v)] < 0) {
      return "slot of " + loop.instr(v).name + " is negative";
    }
  }
  for (const tms::ir::DepEdge& e : loop.deps()) {
    const int sep = slots[static_cast<std::size_t>(e.dst)] - slots[static_cast<std::size_t>(e.src)];
    const int need = edge_delay(loop, mach, e) - ii * e.distance;
    if (sep < need) {
      return "edge " + edge_text(loop, e) + ": separation " + std::to_string(sep) + " < " +
             std::to_string(need);
    }
  }
  std::vector<int> issued(static_cast<std::size_t>(ii), 0);
  std::vector<std::vector<int>> used(tms::ir::kNumFuClasses,
                                     std::vector<int>(static_cast<std::size_t>(ii), 0));
  for (int v = 0; v < n; ++v) {
    const tms::ir::Opcode op = loop.instr(v).op;
    const tms::ir::FuClass fc = tms::ir::fu_class(op);
    if (fc == tms::ir::FuClass::kNone) continue;
    const int slot = slots[static_cast<std::size_t>(v)];
    ++issued[static_cast<std::size_t>(slot % ii)];
    for (int k = 0; k < mach.occupancy(op); ++k) {
      ++used[static_cast<std::size_t>(fc)][static_cast<std::size_t>((slot + k) % ii)];
    }
  }
  for (int r = 0; r < ii; ++r) {
    if (issued[static_cast<std::size_t>(r)] > mach.issue_width()) {
      return "row " + std::to_string(r) + " issues " +
             std::to_string(issued[static_cast<std::size_t>(r)]) + " ops";
    }
    for (int fc = 0; fc < tms::ir::kNumFuClasses; ++fc) {
      const auto cls = static_cast<tms::ir::FuClass>(fc);
      if (cls == tms::ir::FuClass::kNone) continue;
      const int u = used[static_cast<std::size_t>(fc)][static_cast<std::size_t>(r)];
      if (u > mach.fu_count(cls)) {
        return "row " + std::to_string(r) + " uses " + std::to_string(u) + " " +
               std::string(tms::ir::to_string(cls)) + " units of " +
               std::to_string(mach.fu_count(cls));
      }
    }
  }
  const int res = res_ii_bound(loop, mach);
  if (ii < res) return "II " + std::to_string(ii) + " below ResII " + std::to_string(res);
  return std::nullopt;
}

std::vector<int> slots_of(const tms::sched::Schedule& s) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(s.loop().num_instrs()));
  for (int v = 0; v < s.loop().num_instrs(); ++v) out.push_back(s.slot(v));
  return out;
}

std::optional<std::string> check_simulation(const tms::ir::Loop& loop, int stage_count,
                                            const tms::machine::SpmtConfig& cfg,
                                            std::int64_t iterations,
                                            const tms::spmt::SpmtResult& result,
                                            const tms::spmt::ReferenceResult& reference) {
  const tms::spmt::SpmtStats& s = result.stats;
  const std::string where = loop.name() + " at ncore " + std::to_string(cfg.ncore) + ": ";
  if (result.memory != reference.memory) return where + "committed memory differs from reference";
  if (result.value_fingerprint != reference.value_fingerprint) {
    return where + "value fingerprint differs from reference";
  }
  if (s.threads_committed != iterations + stage_count - 1) {
    return where + "threads_committed " + std::to_string(s.threads_committed) + " != N + stages - 1 = " +
           std::to_string(iterations + stage_count - 1);
  }
  if (s.instances_executed != iterations * loop.num_instrs()) {
    return where + "instances_executed " + std::to_string(s.instances_executed) +
           " != N * |loop| = " + std::to_string(iterations * loop.num_instrs());
  }
  if (s.squashed_cycles < s.misspeculations * cfg.c_inv) {
    return where + "squashed_cycles below misspeculations * C_inv";
  }
  if (s.total_cycles < s.threads_committed * cfg.c_ci) {
    return where + "total_cycles below threads_committed * C_ci";
  }
  if (s.total_cycles < (s.threads_committed - 1) * cfg.c_spn) {
    return where + "total_cycles below (threads_committed - 1) * C_spn";
  }
  return std::nullopt;
}

std::optional<std::string> check_response(const tms::ir::Loop& sent,
                                          const tms::machine::MachineModel& mach,
                                          const tms::serve::Response& resp,
                                          const ExpectedSchedule& expected) {
  const std::string where = "response for " + sent.name() + ": ";
  if (!resp.ok) {
    return where + "error " + std::string(tms::serve::to_string(resp.code)) + ": " + resp.message;
  }
  if (const auto err = recheck_schedule(sent, mach, resp.ii, resp.slots)) return where + *err;
  if (resp.ii != expected.ii || resp.mii != expected.mii || resp.slots != expected.slots ||
      resp.c_delay_threshold != expected.c_delay_threshold || resp.p_max != expected.p_max) {
    return where + "differs from a fresh tms_schedule of the same key";
  }
  return std::nullopt;
}

}  // namespace perfbench
