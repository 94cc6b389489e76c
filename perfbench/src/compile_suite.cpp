// compile_suite: cold compilation of a suite sample, the way tmsbatch
// compiles each loop: tms_schedule -> validate_schedule -> lower_kernel
// -> validate_kernel_program, then a short simulation of the generated
// kernel (tmsbatch --simulate) so the run time of the generated code is
// measured too. The scheduler does almost all of the host work, and the
// high-core configuration lengthens its relaxation ladder, so pruned
// rungs and cheaper slot probes both show here.
#include <optional>

#include "check/validate.hpp"
#include "checks.hpp"
#include "codegen/kernel_program.hpp"
#include "sched/mii.hpp"
#include "sched/order.hpp"
#include "sched/tms.hpp"
#include "spmt/address.hpp"
#include "spmt/reference.hpp"
#include "spmt/sim.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

using tms::machine::SpmtConfig;

/// One sampled loop from each of the suite's 13 benchmarks.
constexpr int kSampleLoops = 13;
/// The high core count. 8 keeps a pass near a second; at 16 or 32 the
/// relaxation ladder makes one pass take several seconds.
constexpr int kHighCores = 8;
/// Source iterations of the short simulation of each compiled kernel.
constexpr std::int64_t kSimIterations = 256;
constexpr std::uint64_t kStreamSeed = 1;

struct Job {
  std::size_t loop = 0;
  int config = 0;  ///< 0 = paper, 1 = bus-priced high core count
  bool heavy = false;
};

struct SimSums {
  std::int64_t cycles = 0;
  std::int64_t threads = 0;
  std::int64_t sync_stall = 0;
  std::int64_t mem_stall = 0;
  std::int64_t squashes = 0;
  std::int64_t squashed_cycles = 0;
  std::int64_t bus_cycles = 0;
  std::int64_t bus_transfers = 0;

  void add(const tms::spmt::SpmtStats& s) {
    cycles += s.total_cycles;
    threads += s.threads_committed;
    sync_stall += s.sync_stall_cycles;
    mem_stall += s.mem_stall_cycles;
    squashes += s.misspeculations;
    squashed_cycles += s.squashed_cycles;
    bus_cycles += s.bus_cycles;
    bus_transfers += s.bus_transfers;
  }
};

struct PassTotals {
  double compile_ms = 0.0;
  double sim_ms = 0.0;
  double job_ms_sum = 0.0;
  std::int64_t sim_instr = 0;
  std::vector<double> job_ms;
  SimSums sims[2];
  std::int64_t ii_over_mii = 0;
  std::int64_t c_delay = 0;
  std::vector<int> pairs_tried;  ///< per job, in job-index order
  std::uint64_t failed = 0;      ///< jobs the scheduler found no schedule for
};

}  // namespace

Outcome run_compile_suite(const Args& args) {
  Outcome out;
  const tms::machine::MachineModel mach;
  Layers layers;

  Clock::time_point t = Clock::now();
  std::vector<tms::ir::Loop> loops = suite_sample(kSampleLoops);
  for (tms::workloads::Kernel& k : tms::workloads::classic_kernels()) loops.push_back(std::move(k.loop));
  layers.set("workloads.build_ms", ms_since(t));

  const SpmtConfig configs[2] = {paper_config(), bus_config(kHighCores)};
  std::vector<Job> jobs;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    for (int c = 0; c < 2; ++c) jobs.push_back({l, c, false});
  }
  const std::vector<std::size_t> order = seeded_order(jobs.size(), args.seed);

  // The sequential reference depends only on the loop and its address
  // streams, not on the machine configuration: one per loop.
  t = Clock::now();
  std::vector<tms::spmt::AddressStreams> streams;
  std::vector<tms::spmt::ReferenceResult> refs;
  for (const tms::ir::Loop& loop : loops) {
    streams.push_back(tms::spmt::default_streams(loop, kStreamSeed));
    refs.push_back(tms::spmt::run_reference(loop, streams.back(), kSimIterations));
  }
  layers.set("spmt.reference_ms", ms_since(t));

  tms::spmt::SpmtOptions sim_opts;
  sim_opts.iterations = kSimIterations;
  sim_opts.keep_memory = true;

  const auto run_pass = [&](PassTotals& pt) {
    pt.pairs_tried.assign(jobs.size(), 0);
    for (const std::size_t j : order) {
      const Job& job = jobs[j];
      const tms::ir::Loop& loop = loops[job.loop];
      const SpmtConfig& cfg = configs[job.config];

      const Clock::time_point t0 = Clock::now();
      std::optional<tms::sched::TmsResult> res;
      {
        PB_SPAN(job.heavy ? "sched.tms.heavy" : "sched.tms.light");
        res = tms::sched::tms_schedule(loop, mach, cfg);
      }
      if (!res.has_value()) {
        ++pt.failed;
        continue;
      }
      tms::check::CheckReport valid;
      {
        PB_SPAN("check.validate");
        valid = tms::check::validate_schedule(res->schedule, cfg,
                                              {res->c_delay_threshold, res->p_max});
      }
      tms::codegen::KernelProgram kp;
      {
        PB_SPAN("codegen.lower");
        kp = tms::codegen::lower_kernel(res->schedule, cfg);
      }
      tms::check::CheckReport kernel_valid;
      {
        PB_SPAN("check.kernel_check");
        kernel_valid = tms::check::validate_kernel_program(kp, res->schedule, cfg);
      }
      const Clock::time_point t1 = Clock::now();
      tms::spmt::SpmtResult sim;
      {
        PB_SPAN("spmt.sim");
        sim = tms::spmt::run_spmt(loop, kp, cfg, streams[job.loop], sim_opts);
      }
      const Clock::time_point t2 = Clock::now();

      pt.compile_ms += ms_between(t0, t1);
      pt.sim_ms += ms_between(t1, t2);
      pt.job_ms.push_back(ms_between(t0, t2));
      pt.job_ms_sum += pt.job_ms.back();
      pt.sim_instr += sim.stats.instances_executed;
      pt.sims[job.config].add(sim.stats);
      pt.ii_over_mii += res->schedule.ii() - res->mii;
      pt.c_delay += res->schedule.c_delay(cfg);
      pt.pairs_tried[j] = res->pairs_tried;

      const std::string where = loop.name() + " (config " + std::to_string(job.config) + "): ";
      if (!valid.ok()) out.fail(where + "validate_schedule: " + valid.to_string());
      if (!kernel_valid.ok()) out.fail(where + "validate_kernel_program: " + kernel_valid.to_string());
      if (const auto err = recheck_schedule(loop, mach, res->schedule.ii(), slots_of(res->schedule))) {
        out.fail(where + *err);
      }
      if (const auto err = check_simulation(loop, kp.stage_count, cfg, kSimIterations, sim,
                                            refs[job.loop])) {
        out.fail(*err);
      }
    }
  };

  // Untimed warm pass; its rung counts split the jobs into heavy and
  // light at the sample's median.
  {
    PassTotals warm;
    run_pass(warm);
    std::vector<double> pairs(warm.pairs_tried.begin(), warm.pairs_tried.end());
    const double mid = median(pairs);
    for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].heavy = warm.pairs_tried[j] > mid;
  }
  EndToEnd e2e;
  e2e.setup_s = ms_since(process_start()) / 1e3;

  ExactCounts exact(out);
  std::vector<double> compile_rate, sim_rate, job_rate, pass_p50, pass_p99, traced_ms, untraced_ms;
  std::vector<int> traced_passes;
  const int passes = run_timed_passes(args, [&](int p, bool traced) {
    const tms::obs::CountersSnapshot before = tms::obs::counters_snapshot();
    PassTotals pt;
    run_pass(pt);
    const tms::obs::CountersSnapshot after = tms::obs::counters_snapshot();

    out.failed += pt.failed;
    const auto n = static_cast<double>(pt.job_ms.size());
    compile_rate.push_back(n / (pt.compile_ms / 1e3));
    sim_rate.push_back(static_cast<double>(pt.sim_instr) / (pt.sim_ms * 1e3));
    job_rate.push_back(n / (pt.job_ms_sum / 1e3));
    pass_p50.push_back(quantile(pt.job_ms, 0.50));
    pass_p99.push_back(quantile(pt.job_ms, 0.99));
    (traced ? traced_ms : untraced_ms).push_back(pt.job_ms_sum);

    for (const char* c : {"sched.attempts", "sched.attempts_feasible", "sched.slots_tried",
                          "sched.slot_reject.mrt", "sched.slot_reject.c_delay",
                          "sched.slot_reject.p_max", "sched.slot_reject.headroom",
                          "sched.ejections", "sched.pmax_sweeps_skipped", "sim.events"}) {
      exact.expect(c, static_cast<double>(counter_delta(before, after, c)));
    }
    exact.expect("ii_over_mii", static_cast<double>(pt.ii_over_mii));
    exact.expect("c_delay", static_cast<double>(pt.c_delay));
    exact.expect("threads", static_cast<double>(pt.sims[0].threads + pt.sims[1].threads));
    for (int c = 0; c < 2; ++c) {
      const std::string sfx = c == 0 ? ".paper" : ".bus";
      const SimSums& s = pt.sims[c];
      exact.expect("cycles" + sfx, static_cast<double>(s.cycles));
      exact.expect("spmt.sync_stall_cycles" + sfx, static_cast<double>(s.sync_stall));
      exact.expect("spmt.mem_stall_cycles" + sfx, static_cast<double>(s.mem_stall));
      exact.expect("spmt.squashes" + sfx, static_cast<double>(s.squashes));
      exact.expect("spmt.squashed_cycles" + sfx, static_cast<double>(s.squashed_cycles));
      exact.expect("spmt.bus_cycles" + sfx, static_cast<double>(s.bus_cycles));
      exact.expect("policy.bus_transfers" + sfx, static_cast<double>(s.bus_transfers));
    }

    if (traced) {
      // MII and node ordering each run once inside every tms_schedule;
      // timing them apart on the same loops bounds what those phases can
      // save. Outside the pass's job time.
      traced_passes.push_back(p);
      for (const std::size_t j : order) {
        const tms::ir::Loop& loop = loops[jobs[j].loop];
        {
          PB_SPAN("sched.mii");
          (void)tms::sched::min_ii(loop, mach);
        }
        {
          PB_SPAN("sched.order");
          (void)tms::sched::sms_node_order(loop, mach);
        }
      }
    }
  });
  out.attempted = static_cast<std::uint64_t>(passes) * jobs.size();

  if (!args.trace) {
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.compile_loops_per_s = best_rate(compile_rate);
    e2e.sched_slots = exact.get("sched.slots_tried");
    e2e.sim_minstr_per_s = best_rate(sim_rate);
    e2e.sim_cycles = exact.get("cycles.paper");
    e2e.sim_cycles_bus = exact.get("cycles.bus");
    e2e.requests_per_s = best_rate(job_rate);
    e2e.request_ms_p50 = best_time(pass_p50);
    e2e.request_ms_p99 = best_time(pass_p99);
    e2e.emit(out);
    return out;
  }

  const auto self = tracer().self_ms();
  const double heavy = median_self_ms(self, "sched.tms.heavy", traced_passes);
  const double light = median_self_ms(self, "sched.tms.light", traced_passes);
  std::vector<double> tms_total;
  for (const int p : traced_passes) {
    tms_total.push_back(self_ms_in(self, "sched.tms.heavy", p) + self_ms_in(self, "sched.tms.light", p));
  }
  layers.set("sched.tms_ms", median(tms_total));
  layers.set("sched.tms_ms_heavy", heavy);
  layers.set("sched.tms_ms_light", light);
  layers.set("sched.mii_ms", median_self_ms(self, "sched.mii", traced_passes));
  layers.set("sched.order_ms", median_self_ms(self, "sched.order", traced_passes));
  const double attempts = exact.get("sched.attempts");
  layers.set("sched.attempts", attempts);
  layers.set("sched.attempts_per_loop", attempts / static_cast<double>(jobs.size()));
  layers.set("sched.feasible_per_attempt", exact.get("sched.attempts_feasible") / attempts);
  layers.set("sched.slots_per_attempt", exact.get("sched.slots_tried") / attempts);
  layers.set("sched.reject.mrt", exact.get("sched.slot_reject.mrt"));
  layers.set("sched.reject.c_delay", exact.get("sched.slot_reject.c_delay"));
  layers.set("sched.reject.p_max", exact.get("sched.slot_reject.p_max"));
  layers.set("sched.reject.headroom", exact.get("sched.slot_reject.headroom"));
  layers.set("sched.ejections", exact.get("sched.ejections"));
  layers.set("sched.pmax_sweeps_skipped", exact.get("sched.pmax_sweeps_skipped"));
  layers.set("sched.ii_over_mii", exact.get("ii_over_mii"));
  layers.set("sched.c_delay", exact.get("c_delay"));
  layers.set("check.validate_ms", median_self_ms(self, "check.validate", traced_passes));
  layers.set("check.kernel_check_ms", median_self_ms(self, "check.kernel_check", traced_passes));
  layers.set("codegen.lower_ms", median_self_ms(self, "codegen.lower", traced_passes));
  layers.set("spmt.sim_ms", median_self_ms(self, "spmt.sim", traced_passes));
  layers.set("spmt.events", exact.get("sim.events"));
  layers.set("spmt.events_per_thread", exact.get("sim.events") / exact.get("threads"));
  for (const char* sfx : {".paper", ".bus"}) {
    for (const char* name : {"spmt.sync_stall_cycles", "spmt.mem_stall_cycles", "spmt.squashes",
                             "spmt.squashed_cycles", "spmt.bus_cycles", "policy.bus_transfers"}) {
      layers.set(std::string(name) + sfx, exact.get(std::string(name) + sfx));
    }
  }
  layers.set("obs.trace_overhead_pct", overhead_pct(traced_ms, untraced_ms));
  out.metrics = layers.metrics();
  return out;
}

}  // namespace perfbench
