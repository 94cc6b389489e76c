#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "workloads/builder.hpp"
#include "workloads/spec_suite.hpp"

namespace perfbench {

namespace {

/// Seed of the suite sample. Fixed, so the sampled loops are the same on
/// every run; change it only together with the reference figures in
/// README.md.
constexpr std::uint64_t kSampleSeed = 0x7e57'5a3b'1e00'2008ULL;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct LayerInfo {
  const char* name;
  const char* unit;
};

// The per-layer catalog; BENCHMARK.json's per_layer list matches it.
const LayerInfo kLayers[] = {
    {"workloads.build_ms", "ms"},
    {"sched.tms_ms", "ms"},
    {"sched.tms_ms_heavy", "ms"},
    {"sched.tms_ms_light", "ms"},
    {"sched.mii_ms", "ms"},
    {"sched.order_ms", "ms"},
    {"sched.attempts", "count"},
    {"sched.attempts_per_loop", "ratio"},
    {"sched.feasible_per_attempt", "ratio"},
    {"sched.slots_per_attempt", "ratio"},
    {"sched.reject.mrt", "count"},
    {"sched.reject.c_delay", "count"},
    {"sched.reject.p_max", "count"},
    {"sched.reject.headroom", "count"},
    {"sched.ejections", "count"},
    {"sched.pmax_sweeps_skipped", "count"},
    {"sched.ii_over_mii", "cycles"},
    {"sched.c_delay", "cycles"},
    {"check.validate_ms", "ms"},
    {"check.kernel_check_ms", "ms"},
    {"codegen.lower_ms", "ms"},
    {"spmt.sim_ms", "ms"},
    {"spmt.events", "count"},
    {"spmt.events_per_thread", "ratio"},
    {"spmt.sync_stall_cycles.paper", "cycles"},
    {"spmt.sync_stall_cycles.bus", "cycles"},
    {"spmt.mem_stall_cycles.paper", "cycles"},
    {"spmt.mem_stall_cycles.bus", "cycles"},
    {"spmt.squashes.paper", "count"},
    {"spmt.squashes.bus", "count"},
    {"spmt.squashed_cycles.paper", "cycles"},
    {"spmt.squashed_cycles.bus", "cycles"},
    {"spmt.bus_cycles.paper", "cycles"},
    {"spmt.bus_cycles.bus", "cycles"},
    {"policy.bus_transfers.paper", "count"},
    {"policy.bus_transfers.bus", "count"},
    {"spmt.quick_estimate_us", "us"},
    {"spmt.reference_ms", "ms"},
    {"driver.cache_hit_ratio", "ratio"},
    {"serve.total_us_p50", "us"},
    {"serve.queue_us_p50", "us"},
    {"serve.schedule_us_p50", "us"},
    {"serve.validate_us_p50", "us"},
    {"serve.outside_us_p50", "us"},
    {"serve.codec_us", "us"},
    {"router.hop_us_p50", "us"},
    {"router.busiest_shard_share", "ratio"},
    {"router.retries", "count"},
    {"router.hedges", "count"},
    {"obs.trace_overhead_pct", "pct"},
};

}  // namespace

std::vector<tms::ir::Loop> suite_sample(int count) {
  const std::vector<tms::workloads::BenchmarkSpec> suite = tms::workloads::spec_fp2000_suite();
  std::vector<std::vector<tms::workloads::ShapedLoop>> shapes;
  for (const tms::workloads::BenchmarkSpec& spec : suite) {
    shapes.push_back(tms::workloads::benchmark_shapes(spec));
  }
  std::vector<std::vector<std::size_t>> picked(suite.size());
  std::vector<tms::ir::Loop> loops;
  for (int i = 0; i < count; ++i) {
    const std::size_t b = static_cast<std::size_t>(i) % suite.size();
    const std::vector<tms::workloads::ShapedLoop>& family = shapes[b];
    if (picked[b].size() == family.size()) continue;
    std::size_t at = static_cast<std::size_t>(mix(kSampleSeed ^ static_cast<std::uint64_t>(i)) %
                                              family.size());
    while (std::find(picked[b].begin(), picked[b].end(), at) != picked[b].end()) {
      at = (at + 1) % family.size();
    }
    picked[b].push_back(at);
    loops.push_back(tms::workloads::build_loop(family[at].shape));
  }
  return loops;
}

tms::machine::SpmtConfig paper_config() { return tms::machine::SpmtConfig{}; }

tms::machine::SpmtConfig bus_config(int ncore) {
  tms::machine::SpmtConfig cfg;
  cfg.ncore = ncore;
  cfg.policy = tms::machine::AllocPolicy::kLocality;
  cfg.policy_block = 4;
  cfg.bus_bytes_per_transfer = 8;
  return cfg;
}

std::uint64_t counter_delta(const tms::obs::CountersSnapshot& before,
                            const tms::obs::CountersSnapshot& after, const char* name) {
  return after.value(name) - before.value(name);
}

void ExactCounts::expect(const std::string& name, double value) {
  const auto [it, inserted] = first_.try_emplace(name, value);
  if (!inserted && it->second != value) {
    out_.fail(name + " changed between passes: " + std::to_string(it->second) + " then " +
              std::to_string(value));
  }
}

double ExactCounts::get(const std::string& name) const {
  const auto it = first_.find(name);
  return it == first_.end() ? 0.0 : it->second;
}

int run_timed_passes(const Args& args, const std::function<void(int, bool)>& pass) {
  const Clock::time_point start = Clock::now();
  int p = 0;
  // A traced run needs at least one traced and one untraced pass.
  while (p < (args.trace ? 2 : 1) || ms_since(start) < args.seconds * 1e3) {
    const bool traced = args.trace && p % 2 == 1;
    tracer().set_pass(p);
    tracer().set_armed(traced);
    pass(p, traced);
    tracer().set_armed(false);
    ++p;
  }
  tracer().set_pass(-1);
  return p;
}

double best_rate(const std::vector<double>& per_pass) { return quantile(per_pass, 1.0); }

double best_time(const std::vector<double>& per_pass) { return quantile(per_pass, 0.0); }

double fast_rate(const std::vector<double>& per_pass) { return quantile(per_pass, 0.75); }

double fast_time(const std::vector<double>& per_pass) { return quantile(per_pass, 0.25); }

double overhead_pct(const std::vector<double>& traced_ms, const std::vector<double>& untraced_ms) {
  const double base = median(untraced_ms);
  return base > 0.0 ? (median(traced_ms) / base - 1.0) * 100.0 : 0.0;
}

double median_self_ms(const std::map<std::string, std::map<int, double>>& self,
                      const std::string& name, const std::vector<int>& passes) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const int p : passes) v.push_back(self_ms_in(self, name, p));
  return median(std::move(v));
}

double self_ms_in(const std::map<std::string, std::map<int, double>>& self,
                  const std::string& name, int pass) {
  const auto it = self.find(name);
  if (it == self.end()) return 0.0;
  const auto jt = it->second.find(pass);
  return jt == it->second.end() ? 0.0 : jt->second;
}

void Layers::set(const std::string& name, double value) {
  const bool known = std::any_of(std::begin(kLayers), std::end(kLayers),
                                 [&](const LayerInfo& l) { return name == l.name; });
  if (!known) throw std::logic_error("per-layer metric '" + name + "' is not in the catalog");
  values_[name] = value;
}

std::vector<Metric> Layers::metrics() const {
  std::vector<Metric> out;
  for (const LayerInfo& l : kLayers) {
    const auto it = values_.find(l.name);
    out.push_back({l.name, it == values_.end() ? 0.0 : it->second, l.unit});
  }
  return out;
}

void EndToEnd::emit(Outcome& out) const {
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
  out.add("compile_loops_per_s", compile_loops_per_s, "loops/s");
  out.add("sched_slots", sched_slots, "slots");
  out.add("sim_minstr_per_s", sim_minstr_per_s, "Minstr/s");
  out.add("sim_cycles", sim_cycles, "cycles");
  out.add("sim_cycles_bus", sim_cycles_bus, "cycles");
  out.add("requests_per_s", requests_per_s, "req/s");
  out.add("request_ms_p50", request_ms_p50, "ms");
  out.add("request_ms_p99", request_ms_p99, "ms");
}

}  // namespace perfbench
