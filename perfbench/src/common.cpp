#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1) + 1;
  return mine;
}

thread_local std::uint64_t t_current_span = 0;
std::atomic<std::uint64_t> g_next_span_id{0};

std::int64_t ns_since_start(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_process_start).count();
}

}  // namespace

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double ms_since(Clock::time_point t) { return ms_between(t, Clock::now()); }
double us_since(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

Clock::time_point process_start() { return g_process_start; }

std::optional<std::string> parse_args(int argc, char** argv, Args& out) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return "missing value for " + std::string(a);
    const std::string_view v = argv[++i];
    if (a == "--workload") {
      out.workload = std::string(v);
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, out.seed)) return "bad --seed '" + std::string(v) + "'";
      have_seed = true;
    } else if (a == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(v, s) || s < 1 || s > 3600) return "bad --seconds '" + std::string(v) + "'";
      out.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return "bad --trace '" + std::string(v) + "' (want 0 or 1)";
      out.trace = v == "1";
      have_trace = true;
    } else {
      return "unknown argument '" + std::string(a) + "'";
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return std::string("need --workload, --seed, --seconds and --trace");
  }
  return std::nullopt;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

std::string result_json(const Outcome& o) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : o.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + escape(m.name) + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

// ---- Tracing -----------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.armed()) return;
  t_ = &t;
  span_.name = name;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  span_.parent = t_current_span;
  span_.thread = thread_index();
  span_.pass = t.pass_.load(std::memory_order_relaxed);
  t_current_span = span_.id;
  span_.start_ns = ns_since_start(Clock::now());
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  span_.end_ns = ns_since_start(Clock::now());
  t_current_span = span_.parent;
  t_->record(span_);
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::map<int, double>> Tracer::self_ms() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::map<int, double>> out;
  for (const Span& s : all) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self = s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    out[s.name][s.pass] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": \"" << escape(s.name) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.thread << ", \"ts\": " << number(static_cast<double>(s.start_ns) / 1e3)
        << ", \"dur\": " << number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"pass\": " << s.pass << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::optional<std::string> write_trace_outputs(const std::string& dir, const std::string& stem,
                                               const std::vector<Metric>& layers) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create " + dir + ": " + ec.message();
  const std::string trace_path = dir + "/" + stem + ".trace.json";
  if (!tracer().write_chrome_json(trace_path)) return "cannot write " + trace_path;
  const std::string layers_path = dir + "/" + stem + ".layers.json";
  std::ofstream out(layers_path);
  out << "{";
  bool first = true;
  for (const Metric& m : layers) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << escape(m.name) << "\": {\"value\": " << number(m.value)
        << ", \"unit\": \"" << escape(m.unit) << "\"}";
  }
  out << "\n}\n";
  if (!out) return "cannot write " + layers_path;
  return std::nullopt;
}

std::string layers_to_text(const std::vector<Metric>& layers) {
  std::string out;
  for (const Metric& m : layers) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
