// The three benchmark workloads and what they share: the input sample,
// the machine configurations, the timed-pass loop, the exact-count
// guard, and the per-layer table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "ir/loop.hpp"
#include "machine/spmt_config.hpp"
#include "obs/counters.hpp"

namespace perfbench {

Outcome run_compile_suite(const Args& args);
Outcome run_simulate_suite(const Args& args);
Outcome run_serve_routed(const Args& args);

/// Pass index stamped on spans recorded during a traced run's set-up.
inline constexpr int kSetupPass = 1 << 30;

/// Sample of the SPECfp2000-shaped suite: `count` loops, taken from its
/// 13 benchmarks in turn, each at a position drawn from a fixed seed.
/// The sample does not depend on --seed: the exact counts (slots,
/// cycles) must read the same in every run, and runs that compare two
/// builds use different seeds. --seed orders the work instead.
std::vector<tms::ir::Loop> suite_sample(int count);

/// The paper's machine: 4-core ring, modulo placement, bus off.
tms::machine::SpmtConfig paper_config();
/// A bus-priced non-modulo placement: locality with block 4 and 8-byte
/// transfers on a shared bus, as in policy_compare.
tms::machine::SpmtConfig bus_config(int ncore);

/// One counter's change between two registry snapshots.
std::uint64_t counter_delta(const tms::obs::CountersSnapshot& before,
                            const tms::obs::CountersSnapshot& after, const char* name);

/// Remembers the first value seen for each named count and fails the
/// outcome when a later pass reports a different one: counts of
/// deterministic work must repeat exactly.
class ExactCounts {
 public:
  explicit ExactCounts(Outcome& out) : out_(out) {}
  void expect(const std::string& name, double value);
  double get(const std::string& name) const;

 private:
  Outcome& out_;
  std::map<std::string, double> first_;
};

/// Runs whole passes until `args.seconds` have elapsed since the first
/// one started. In a traced run the tracer is armed on every second
/// pass, so traced and untraced passes interleave and share the same
/// host conditions. Returns the number of passes run.
int run_timed_passes(const Args& args, const std::function<void(int pass, bool traced)>& pass);

/// A host-time metric's value for the run, from one sample per timed
/// pass. Slow episodes on a shared host only ever add time and can
/// cover most of a run, which moves the median (README.md, "Noise").
/// Single-threaded CPU-bound passes have a floor, the undisturbed time,
/// so the best pass estimates the program's own cost: the highest rate
/// or the shortest time. Passes whose time is made of thread hand-offs
/// (serving) have no such floor and their best pass is a lucky outlier,
/// so they take the fast quartile: the upper quartile of the rates or
/// the lower quartile of the times.
double best_rate(const std::vector<double>& per_pass);
double best_time(const std::vector<double>& per_pass);
double fast_rate(const std::vector<double>& per_pass);
double fast_time(const std::vector<double>& per_pass);

/// Tracing overhead in percent: median traced pass time over median
/// untraced pass time, minus one.
double overhead_pct(const std::vector<double>& traced_ms, const std::vector<double>& untraced_ms);

/// Median over `passes` of a name's per-pass self time (0 where absent).
double median_self_ms(const std::map<std::string, std::map<int, double>>& self,
                      const std::string& name, const std::vector<int>& passes);
/// A name's self time within one pass (0 where absent).
double self_ms_in(const std::map<std::string, std::map<int, double>>& self,
                  const std::string& name, int pass);

/// The per-layer table every traced run prints, in catalog order. Every
/// workload reports every entry; a layer a workload does not exercise
/// reads 0.
class Layers {
 public:
  void set(const std::string& name, double value);
  std::vector<Metric> metrics() const;

 private:
  std::map<std::string, double> values_;
};

/// Every end-to-end metric a workload reports with --trace 0, in order.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double compile_loops_per_s = 0.0;
  double sched_slots = 0.0;
  double sim_minstr_per_s = 0.0;
  double sim_cycles = 0.0;
  double sim_cycles_bus = 0.0;
  double requests_per_s = 0.0;
  double request_ms_p50 = 0.0;
  double request_ms_p99 = 0.0;

  void emit(Outcome& out) const;
};

}  // namespace perfbench
