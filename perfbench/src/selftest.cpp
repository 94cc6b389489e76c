// Proves each of the benchmark's checks can fail: every check must
// accept a correct output and reject the same output with one fault
// planted in it. Run as `tmsbench_selftest` (or `ctest` in the build
// directory, or `python3 perfbench/run.py --self-test`); exits 1 when a
// check lets a planted fault through or rejects a correct output.
#include <cstdio>
#include <optional>
#include <string>

#include "checks.hpp"
#include "codegen/kernel_program.hpp"
#include "sched/tms.hpp"
#include "spmt/address.hpp"
#include "spmt/reference.hpp"
#include "spmt/sim.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace {

using perfbench::ExpectedSchedule;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

tms::ir::Loop kernel(const std::string& name) {
  for (tms::workloads::Kernel& k : tms::workloads::classic_kernels()) {
    if (k.loop.name() == name) return std::move(k.loop);
  }
  std::fprintf(stderr, "no classic kernel named %s\n", name.c_str());
  std::exit(2);
}

tms::serve::Response response_of(const ExpectedSchedule& e) {
  tms::serve::Response r;
  r.ok = true;
  r.scheduler = "tms";
  r.ii = e.ii;
  r.mii = e.mii;
  r.c_delay_threshold = e.c_delay_threshold;
  r.p_max = e.p_max;
  r.slots = e.slots;
  return r;
}

}  // namespace

int main() {
  const tms::machine::MachineModel mach;
  const tms::machine::SpmtConfig cfg = perfbench::paper_config();

  // A real schedule of a loop with a recurrence.
  const tms::ir::Loop loop = kernel("tridiag");
  const auto res = tms::sched::tms_schedule(loop, mach, cfg);
  if (!res.has_value()) {
    std::fprintf(stderr, "tms_schedule failed on tridiag\n");
    return 2;
  }
  const std::vector<int> slots = perfbench::slots_of(res->schedule);
  const int ii = res->schedule.ii();
  expect(!perfbench::recheck_schedule(loop, mach, ii, slots).has_value(),
         "recheck_schedule accepts a scheduler-produced schedule");

  // 1. One slot moved across a dependence: the consumer of an
  // intra-iteration flow edge placed in its producer's cycle.
  {
    std::optional<std::vector<int>> broken;
    for (const tms::ir::DepEdge& e : loop.deps()) {
      if (e.is_register_flow() && e.distance == 0 && mach.latency(loop.instr(e.src).op) > 0) {
        broken = slots;
        (*broken)[static_cast<std::size_t>(e.dst)] = slots[static_cast<std::size_t>(e.src)];
        break;
      }
    }
    const auto err = broken ? perfbench::recheck_schedule(loop, mach, ii, *broken) : std::nullopt;
    expect(broken.has_value() && err.has_value() && err->find("edge") != std::string::npos,
           "recheck_schedule rejects a slot moved across a dependence");
  }

  // 2. A row with one functional-unit class oversubscribed: two
  // independent loads on a machine with one memory port, both in row 0.
  {
    tms::ir::Loop two_loads("two_loads");
    two_loads.add_instr(tms::ir::Opcode::kLoad, "a");
    two_loads.add_instr(tms::ir::Opcode::kLoad, "b");
    expect(!perfbench::recheck_schedule(two_loads, mach, 2, {0, 1}).has_value(),
           "recheck_schedule accepts the loads in rows 0 and 1");
    const auto err = perfbench::recheck_schedule(two_loads, mach, 2, {0, 2});
    expect(err.has_value() && err->find("mem") != std::string::npos,
           "recheck_schedule rejects a row with the memory port oversubscribed");
    expect(perfbench::recheck_schedule(two_loads, mach, 1, {0, 1}).has_value(),
           "recheck_schedule rejects an II below the ResII it computes");
  }

  // 3 and 4. A simulation checked against the sequential reference.
  {
    const std::int64_t n = 64;
    const tms::codegen::KernelProgram kp = tms::codegen::lower_kernel(res->schedule, cfg);
    const tms::spmt::AddressStreams streams = tms::spmt::default_streams(loop, 1);
    tms::spmt::SpmtOptions opts;
    opts.iterations = n;
    const tms::spmt::SpmtResult sim = tms::spmt::run_spmt(loop, kp, cfg, streams, opts);
    const tms::spmt::ReferenceResult ref = tms::spmt::run_reference(loop, streams, n);
    expect(!perfbench::check_simulation(loop, kp.stage_count, cfg, n, sim, ref).has_value(),
           "check_simulation accepts a correct simulation");
    if (sim.memory.empty()) {
      expect(false, "the simulation kept a memory image");
    } else {
      tms::spmt::SpmtResult one_word = sim;
      one_word.memory.begin()->second ^= 1;
      expect(perfbench::check_simulation(loop, kp.stage_count, cfg, n, one_word, ref).has_value(),
             "check_simulation rejects a memory image with one word changed");
    }
    tms::spmt::SpmtResult off_by_one = sim;
    off_by_one.stats.threads_committed += 1;
    expect(perfbench::check_simulation(loop, kp.stage_count, cfg, n, off_by_one, ref).has_value(),
           "check_simulation rejects a committed-thread count off by one");
    tms::spmt::SpmtResult fewer_instances = sim;
    fewer_instances.stats.instances_executed -= 1;
    expect(perfbench::check_simulation(loop, kp.stage_count, cfg, n, fewer_instances, ref).has_value(),
           "check_simulation rejects an instance count off by one");
  }

  // 5. A response whose slots belong to a different loop of the same size.
  {
    const tms::ir::Loop a = kernel("hydro");
    const tms::ir::Loop b = kernel("fir4");
    const auto ra = tms::sched::tms_schedule(a, mach, cfg);
    const auto rb = tms::sched::tms_schedule(b, mach, cfg);
    if (!ra.has_value() || !rb.has_value() || a.num_instrs() != b.num_instrs()) {
      expect(false, "hydro and fir4 schedule and have the same size");
    } else {
      const ExpectedSchedule want{ra->schedule.ii(), ra->mii, ra->c_delay_threshold, ra->p_max,
                                  perfbench::slots_of(ra->schedule)};
      const ExpectedSchedule other{rb->schedule.ii(), rb->mii, rb->c_delay_threshold, rb->p_max,
                                   perfbench::slots_of(rb->schedule)};
      expect(want.slots != other.slots, "hydro and fir4 have different schedules");
      expect(!perfbench::check_response(a, mach, response_of(want), want).has_value(),
             "check_response accepts the loop's own schedule");
      expect(perfbench::check_response(a, mach, response_of(other), want).has_value(),
             "check_response rejects a response whose slots belong to another loop");
      tms::serve::Response error = response_of(want);
      error.ok = false;
      expect(perfbench::check_response(a, mach, error, want).has_value(),
             "check_response rejects an error response");
    }
  }

  std::printf("%s\n", g_failures == 0 ? "selftest: all checks can fail" : "selftest: FAILED");
  return g_failures == 0 ? 0 : 1;
}
