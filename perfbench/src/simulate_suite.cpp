// simulate_suite: the run_sim_sweep path. The seven Table-3 DOACROSS
// loops plus a suite sample are scheduled during set-up, once per
// configuration, and every timed pass runs each point on spmt::run_spmt
// with its default (event-driven) engine. The scheduler does none of the
// timed work. The bus-priced configuration is where policy-aware C1
// pricing would move cycles; the paper's configuration must not move
// under such a change.
#include <optional>

#include "check/validate.hpp"
#include "checks.hpp"
#include "codegen/kernel_program.hpp"
#include "sched/mii.hpp"
#include "sched/order.hpp"
#include "sched/sms.hpp"
#include "sched/tms.hpp"
#include "spmt/address.hpp"
#include "spmt/reference.hpp"
#include "spmt/sim.hpp"
#include "spmt/single_core.hpp"
#include "workloads.hpp"
#include "workloads/doacross.hpp"

namespace perfbench {

namespace {

using tms::machine::SpmtConfig;

/// Suite loops beside the seven DOACROSS loops. Few, because each is
/// scheduled at ncore 32 during set-up.
constexpr int kSampleLoops = 4;
constexpr int kBusCores = 32;
constexpr std::int64_t kIterations = 2000;
constexpr std::uint64_t kStreamSeed = 1;

/// Loops below this size are recompiled in every timed pass (paper
/// configuration only) to measure the compile rate.
constexpr int kRecompileBelowInstrs = 60;

struct Point {
  std::size_t loop = 0;
  int config = 0;  ///< 0 = paper, 1 = bus-priced
  int ii = 0;
  std::vector<int> slots;
  tms::codegen::KernelProgram kp;
};

/// Cycles of one loop under TMS and SMS and on the single-core baseline,
/// for the README's reference figures (traced runs only).
void print_reference_figures(const std::vector<tms::ir::Loop>& loops, std::size_t n_doacross,
                             const SpmtConfig& cfg, const tms::machine::MachineModel& mach,
                             const std::vector<Point>& points,
                             const std::vector<tms::spmt::AddressStreams>& streams) {
  std::printf("reference figures, paper configuration, %lld iterations:\n",
              static_cast<long long>(kIterations));
  std::printf("  %-18s %10s %10s %10s %9s %9s\n", "loop", "tms", "sms", "single", "tms/sms",
              "tms/1core");
  tms::spmt::SpmtOptions opts;
  opts.iterations = kIterations;
  opts.keep_memory = false;
  for (const Point& p : points) {
    if (p.config != 0 || p.loop >= n_doacross) continue;
    const tms::ir::Loop& loop = loops[p.loop];
    const auto tms_cycles = tms::spmt::run_spmt(loop, p.kp, cfg, streams[p.loop], opts).stats.total_cycles;
    const auto sms = tms::sched::sms_schedule(loop, mach);
    if (!sms.has_value()) continue;
    const auto sms_kp = tms::codegen::lower_kernel(sms->schedule, cfg);
    const auto sms_cycles = tms::spmt::run_spmt(loop, sms_kp, cfg, streams[p.loop], opts).stats.total_cycles;
    const auto single = tms::spmt::run_single_threaded(loop, mach, cfg, streams[p.loop], kIterations).total_cycles;
    std::printf("  %-18s %10lld %10lld %10lld %9.3f %9.3f\n", loop.name().c_str(),
                static_cast<long long>(tms_cycles), static_cast<long long>(sms_cycles),
                static_cast<long long>(single),
                static_cast<double>(sms_cycles) / static_cast<double>(tms_cycles),
                static_cast<double>(single) / static_cast<double>(tms_cycles));
  }
}

}  // namespace

Outcome run_simulate_suite(const Args& args) {
  Outcome out;
  const tms::machine::MachineModel mach;
  Layers layers;
  // The scheduler runs only in set-up here, so a traced run traces the
  // set-up too: its layer times are what setup_s is made of.
  if (args.trace) {
    tracer().set_pass(kSetupPass);
    tracer().set_armed(true);
  }

  Clock::time_point t = Clock::now();
  std::vector<tms::ir::Loop> loops;
  for (tms::workloads::SelectedLoop& s : tms::workloads::doacross_selected_loops()) {
    loops.push_back(std::move(s.loop));
  }
  const std::size_t n_doacross = loops.size();
  for (tms::ir::Loop& l : suite_sample(kSampleLoops)) loops.push_back(std::move(l));
  layers.set("workloads.build_ms", ms_since(t));

  const SpmtConfig configs[2] = {paper_config(), bus_config(kBusCores)};

  // Schedule, validate and lower every (loop, configuration) point.
  const tms::obs::CountersSnapshot sched_before = tms::obs::counters_snapshot();
  std::vector<Point> points;
  std::vector<double> pairs_tried, tms_ms;
  std::int64_t ii_over_mii = 0, c_delay = 0;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    for (int c = 0; c < 2; ++c) {
      const tms::ir::Loop& loop = loops[l];
      const SpmtConfig& cfg = configs[c];
      const Clock::time_point t0 = Clock::now();
      std::optional<tms::sched::TmsResult> res;
      {
        PB_SPAN("sched.tms");
        res = tms::sched::tms_schedule(loop, mach, cfg);
      }
      tms_ms.push_back(ms_since(t0));
      if (!res.has_value()) {
        out.fail(loop.name() + ": tms_schedule found no schedule");
        continue;
      }
      tms::check::CheckReport valid;
      {
        PB_SPAN("check.validate");
        valid = tms::check::validate_schedule(res->schedule, cfg, {res->c_delay_threshold, res->p_max});
      }
      Point p{l, c, res->schedule.ii(), slots_of(res->schedule), {}};
      {
        PB_SPAN("codegen.lower");
        p.kp = tms::codegen::lower_kernel(res->schedule, cfg);
      }
      tms::check::CheckReport kernel_valid;
      {
        PB_SPAN("check.kernel_check");
        kernel_valid = tms::check::validate_kernel_program(p.kp, res->schedule, cfg);
      }
      if (!valid.ok()) out.fail(loop.name() + ": validate_schedule: " + valid.to_string());
      if (!kernel_valid.ok()) out.fail(loop.name() + ": validate_kernel_program: " + kernel_valid.to_string());
      if (const auto err = recheck_schedule(loop, mach, res->schedule.ii(), slots_of(res->schedule))) {
        out.fail(loop.name() + ": " + *err);
      }
      pairs_tried.push_back(static_cast<double>(res->pairs_tried));
      ii_over_mii += res->schedule.ii() - res->mii;
      c_delay += res->schedule.c_delay(cfg);
      points.push_back(std::move(p));
    }
  }
  const tms::obs::CountersSnapshot sched_after = tms::obs::counters_snapshot();

  t = Clock::now();
  std::vector<tms::spmt::AddressStreams> streams;
  std::vector<tms::spmt::ReferenceResult> refs;
  for (const tms::ir::Loop& loop : loops) {
    streams.push_back(tms::spmt::default_streams(loop, kStreamSeed));
    refs.push_back(tms::spmt::run_reference(loop, streams.back(), kIterations));
  }
  layers.set("spmt.reference_ms", ms_since(t));
  tracer().set_armed(false);

  const std::vector<std::size_t> order = seeded_order(points.size(), args.seed);
  // The compile rate comes from recompiling the small paper-configuration
  // points after each pass's simulations, timed apart from them, so no
  // simulator metric includes scheduler work.
  std::vector<std::size_t> recompile;
  for (const std::size_t i : order) {
    if (points[i].config == 0 && loops[points[i].loop].num_instrs() < kRecompileBelowInstrs) {
      recompile.push_back(i);
    }
  }
  tms::spmt::SpmtOptions sim_opts;
  sim_opts.iterations = kIterations;
  sim_opts.keep_memory = true;

  struct PassTotals {
    double sim_ms = 0.0;
    std::int64_t instr = 0;
    std::int64_t threads = 0;
    std::vector<double> point_ms;
    std::int64_t cycles[2] = {0, 0};
    std::map<std::string, std::int64_t> per_config;
  };
  const auto run_pass = [&](PassTotals& pt) {
    for (const std::size_t i : order) {
      const Point& p = points[i];
      const tms::ir::Loop& loop = loops[p.loop];
      const SpmtConfig& cfg = configs[p.config];
      const Clock::time_point t0 = Clock::now();
      tms::spmt::SpmtResult res;
      {
        PB_SPAN("spmt.sim");
        res = tms::spmt::run_spmt(loop, p.kp, cfg, streams[p.loop], sim_opts);
      }
      pt.point_ms.push_back(ms_since(t0));
      pt.sim_ms += pt.point_ms.back();
      const tms::spmt::SpmtStats& s = res.stats;
      pt.instr += s.instances_executed;
      pt.threads += s.threads_committed;
      pt.cycles[p.config] += s.total_cycles;
      const std::string sfx = p.config == 0 ? ".paper" : ".bus";
      pt.per_config["spmt.sync_stall_cycles" + sfx] += s.sync_stall_cycles;
      pt.per_config["spmt.mem_stall_cycles" + sfx] += s.mem_stall_cycles;
      pt.per_config["spmt.squashes" + sfx] += s.misspeculations;
      pt.per_config["spmt.squashed_cycles" + sfx] += s.squashed_cycles;
      pt.per_config["spmt.bus_cycles" + sfx] += s.bus_cycles;
      pt.per_config["policy.bus_transfers" + sfx] += s.bus_transfers;
      if (const auto err = check_simulation(loop, p.kp.stage_count, cfg, kIterations, res, refs[p.loop])) {
        out.fail(*err);
      }
    }
  };

  {
    PassTotals warm;
    run_pass(warm);
  }
  EndToEnd e2e;
  e2e.setup_s = ms_since(process_start()) / 1e3;

  ExactCounts exact(out);
  std::vector<double> compile_rate, sim_rate, point_rate, pass_p50, pass_p99, traced_ms, untraced_ms;
  std::vector<int> traced_passes;
  const int passes = run_timed_passes(args, [&](int p, bool traced) {
    const tms::obs::CountersSnapshot before = tms::obs::counters_snapshot();
    PassTotals pt;
    run_pass(pt);
    const tms::obs::CountersSnapshot after = tms::obs::counters_snapshot();
    double recompile_ms = 0.0;
    for (const std::size_t i : recompile) {
      const Point& pt_i = points[i];
      const Clock::time_point c0 = Clock::now();
      const auto res = tms::sched::tms_schedule(loops[pt_i.loop], mach, configs[0]);
      recompile_ms += ms_since(c0);
      if (!res.has_value() || res->schedule.ii() != pt_i.ii || slots_of(res->schedule) != pt_i.slots) {
        out.fail(loops[pt_i.loop].name() + ": recompiling gave a different schedule");
      }
    }
    compile_rate.push_back(static_cast<double>(recompile.size()) / (recompile_ms / 1e3));
    sim_rate.push_back(static_cast<double>(pt.instr) / (pt.sim_ms * 1e3));
    point_rate.push_back(static_cast<double>(pt.point_ms.size()) / (pt.sim_ms / 1e3));
    pass_p50.push_back(quantile(pt.point_ms, 0.50));
    pass_p99.push_back(quantile(pt.point_ms, 0.99));
    (traced ? traced_ms : untraced_ms).push_back(pt.sim_ms);
    if (traced) traced_passes.push_back(p);
    exact.expect("sim.events", static_cast<double>(counter_delta(before, after, "sim.events")));
    exact.expect("threads", static_cast<double>(pt.threads));
    exact.expect("cycles.paper", static_cast<double>(pt.cycles[0]));
    exact.expect("cycles.bus", static_cast<double>(pt.cycles[1]));
    for (const auto& [name, v] : pt.per_config) exact.expect(name, static_cast<double>(v));
  });
  out.attempted = static_cast<std::uint64_t>(passes) * points.size();

  if (!args.trace) {
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.compile_loops_per_s = best_rate(compile_rate);
    e2e.sched_slots = static_cast<double>(counter_delta(sched_before, sched_after, "sched.slots_tried"));
    e2e.sim_minstr_per_s = best_rate(sim_rate);
    e2e.sim_cycles = exact.get("cycles.paper");
    e2e.sim_cycles_bus = exact.get("cycles.bus");
    e2e.requests_per_s = best_rate(point_rate);
    e2e.request_ms_p50 = best_time(pass_p50);
    e2e.request_ms_p99 = best_time(pass_p99);
    e2e.emit(out);
    return out;
  }

  print_reference_figures(loops, n_doacross, configs[0], mach, points, streams);

  // Set-up layers: the scheduler and its checks ran once, before the
  // timed passes.
  const auto self = tracer().self_ms();
  const std::vector<int> setup{kSetupPass};
  layers.set("sched.tms_ms", median_self_ms(self, "sched.tms", setup));
  // Heavy and light points split at the median rung count.
  const double mid = median(pairs_tried);
  double heavy = 0.0, light = 0.0;
  for (std::size_t i = 0; i < tms_ms.size(); ++i) (pairs_tried[i] > mid ? heavy : light) += tms_ms[i];
  layers.set("sched.tms_ms_heavy", heavy);
  layers.set("sched.tms_ms_light", light);
  // MII and node ordering run once inside every tms_schedule; timed
  // apart on the same loops they bound what those phases can save.
  tracer().set_pass(kSetupPass);
  tracer().set_armed(true);
  for (const Point& p : points) {
    {
      PB_SPAN("sched.mii");
      (void)tms::sched::min_ii(loops[p.loop], mach);
    }
    {
      PB_SPAN("sched.order");
      (void)tms::sched::sms_node_order(loops[p.loop], mach);
    }
  }
  tracer().set_armed(false);
  const auto self_phases = tracer().self_ms();
  layers.set("sched.mii_ms", median_self_ms(self_phases, "sched.mii", setup));
  layers.set("sched.order_ms", median_self_ms(self_phases, "sched.order", setup));
  const auto sched_count = [&](const char* name) {
    return static_cast<double>(counter_delta(sched_before, sched_after, name));
  };
  const double attempts = sched_count("sched.attempts");
  layers.set("sched.attempts", attempts);
  layers.set("sched.attempts_per_loop", attempts / static_cast<double>(points.size()));
  layers.set("sched.feasible_per_attempt", sched_count("sched.attempts_feasible") / attempts);
  layers.set("sched.slots_per_attempt", sched_count("sched.slots_tried") / attempts);
  layers.set("sched.reject.mrt", sched_count("sched.slot_reject.mrt"));
  layers.set("sched.reject.c_delay", sched_count("sched.slot_reject.c_delay"));
  layers.set("sched.reject.p_max", sched_count("sched.slot_reject.p_max"));
  layers.set("sched.reject.headroom", sched_count("sched.slot_reject.headroom"));
  layers.set("sched.ejections", sched_count("sched.ejections"));
  layers.set("sched.pmax_sweeps_skipped", sched_count("sched.pmax_sweeps_skipped"));
  layers.set("sched.ii_over_mii", static_cast<double>(ii_over_mii));
  layers.set("sched.c_delay", static_cast<double>(c_delay));
  layers.set("check.validate_ms", median_self_ms(self, "check.validate", setup));
  layers.set("check.kernel_check_ms", median_self_ms(self, "check.kernel_check", setup));
  layers.set("codegen.lower_ms", median_self_ms(self, "codegen.lower", setup));
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
