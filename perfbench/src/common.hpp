// Shared plumbing of the repository benchmark: argument parsing, timing
// and quantiles, the result line, the benchmark's own span tracer, and
// the per-layer table a traced run prints.
//
// The benchmark records spans only from its own files, around each call
// into a layer of the program (sched, check, codegen, spmt, serve,
// router). Spans live in memory and are written out once, at the end of
// a traced run; an untraced run pays one branch per span site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t);
double us_since(Clock::time_point t);

/// Time of the benchmark process's start (a static initialiser), so
/// setup_s covers everything a cold run pays before its first timed pass.
Clock::time_point process_start();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Strict parse of `--workload W --seed N --seconds S --trace 0|1`.
/// Returns an error description on any unknown, missing or malformed
/// argument.
std::optional<std::string> parse_args(int argc, char** argv, Args& out);

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Deterministic permutation of [0, n) from `seed` (splitmix64-driven
/// Fisher-Yates): the order in which a pass visits its inputs.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the checks' verdict, the
/// operation counts, and the metrics of the requested kind.
struct Outcome {
  bool correct = true;
  std::string failure;  ///< first failed check, when !correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check (keeps the first description).
  void fail(const std::string& what) {
    if (correct) failure = what;
    correct = false;
  }
};

/// The result line: one JSON object with exactly correct, attempted,
/// failed and metrics.
std::string result_json(const Outcome& o);

// ---- Tracing -----------------------------------------------------------

/// One recorded span. `pass` is the timed pass it belongs to (-1 outside
/// the timed passes); `parent` is the enclosing span on the same thread.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t thread = 0;
  int pass = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void set_armed(bool on) { armed_.store(on, std::memory_order_relaxed); }
  /// Pass index stamped on the spans that start from now on.
  void set_pass(int pass) { pass_.store(pass, std::memory_order_relaxed); }

  /// A span around one call into a layer; records nothing while the
  /// tracer is disarmed.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_ = nullptr;
    Span span_;
  };

  std::vector<Span> spans() const;

  /// Self time (span minus the time its child spans cover) in
  /// milliseconds, summed per span name within one pass: name -> pass ->
  /// ms.
  std::map<std::string, std::map<int, double>> self_ms() const;

  /// Writes every span as a Chrome trace-event JSON file.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class Scope;
  void record(const Span& s);

  std::atomic<bool> armed_{false};
  std::atomic<int> pass_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& tracer();

#define PB_CONCAT2(a, b) a##b
#define PB_CONCAT(a, b) PB_CONCAT2(a, b)
/// Records a span named `name` around the rest of the enclosing block.
#define PB_SPAN(name) ::perfbench::Tracer::Scope PB_CONCAT(pb_span_, __LINE__)(::perfbench::tracer(), name)

/// Writes the traced run's artefacts under `dir`: the spans as
/// <stem>.trace.json and the per-layer table as <stem>.layers.json.
/// Returns an error description on failure.
std::optional<std::string> write_trace_outputs(const std::string& dir, const std::string& stem,
                                               const std::vector<Metric>& layers);

/// Human-readable per-layer table (one `name value unit` line each).
std::string layers_to_text(const std::vector<Metric>& layers);

}  // namespace perfbench
