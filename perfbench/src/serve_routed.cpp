// serve_routed: the tmsq -> tmsrouter -> tmsd -> schedule -> validate ->
// sim-verify path, all in one process over real Unix sockets. Two
// closed-loop client connections talk to one router (router::Router
// behind a SocketServer) fronting two shards, each a CompileService with
// its own ScheduleCache, sim-verify on, a flight recorder attached as
// tmsd attaches one, and one compile worker.
//
// Set-up warms the working set of (loop, configuration) keys. Each pass
// then sends every working-set key six times (cache hits) plus two light
// keys per client that were never sent before: classic kernels under a
// configuration no other request uses, so the cache's insert path and a
// fresh schedule -> validate -> sim-verify run beside the lookups.
// Transport, codec, the router hop and the validate + sim-verify work a
// shard does on every hit dominate; the scheduler barely appears.
//
// The sockets live in a fixed directory: the hash ring is keyed by
// socket path, so a fixed path keeps shard ownership the same from run
// to run.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>

#include "check/validate.hpp"
#include "checks.hpp"
#include "codegen/kernel_program.hpp"
#include "driver/schedule_cache.hpp"
#include "obs/flight.hpp"
#include "router/router.hpp"
#include "sched/tms.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/message.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "spmt/estimate.hpp"
#include "support/json_parse.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

using tms::machine::SpmtConfig;

constexpr const char* kSocketDir = ".bench_sock";
constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr int kSampleLoops = 13;
constexpr int kBusCores = 8;
/// Times each working-set key is requested per pass.
constexpr int kRoundsPerPass = 6;
/// Light kernels every client sends once per pass, each time under a
/// configuration no request has used before.
const char* const kLightKernels[] = {"inner_prod", "first_sum"};
constexpr int kLightPerClient = 2;
/// Light keys differ from every other key only in bus_bytes_per_cycle,
/// which does not change the schedule while the bus term is off.
constexpr int kFirstLightBandwidth = 17;

struct Key {
  std::size_t loop = 0;
  int config = 0;  ///< 0 = paper, 1 = bus-priced
};

struct Sent {
  std::size_t key = 0;  ///< index into keys, or SIZE_MAX for a light key
  int light = -1;       ///< light kernel index for a light key
  tms::serve::Request req;
  tms::serve::Response resp;
  double rtt_us = 0.0;
  std::string transport_error;
};

tms::serve::Request make_request(const tms::ir::Loop& loop, const SpmtConfig& cfg) {
  tms::serve::Request req;
  req.scheduler = "tms";
  req.ncore = cfg.ncore;
  req.policy = cfg.policy;
  req.policy_stride = cfg.policy_stride;
  req.policy_block = cfg.policy_block;
  req.bus_bytes_per_transfer = cfg.bus_bytes_per_transfer;
  req.bus_bytes_per_cycle = cfg.bus_bytes_per_cycle;
  req.loop = loop;
  return req;
}

SpmtConfig config_of(const tms::serve::Request& req) {
  SpmtConfig cfg;
  cfg.ncore = req.ncore;
  cfg.policy = req.policy;
  cfg.policy_stride = req.policy_stride;
  cfg.policy_block = req.policy_block;
  cfg.bus_bytes_per_transfer = req.bus_bytes_per_transfer;
  cfg.bus_bytes_per_cycle = req.bus_bytes_per_cycle;
  return cfg;
}

ExpectedSchedule expected_of(const tms::sched::TmsResult& r) {
  return {r.schedule.ii(), r.mii, r.c_delay_threshold, r.p_max, slots_of(r.schedule)};
}

/// The servers of one run. Destruction drains them in the daemons'
/// order — router transport, router, then each shard's transport and
/// service — and removes the socket directory.
class Topology {
 public:
  explicit Topology(const tms::machine::MachineModel& mach) : mach_(mach) {}
  ~Topology() { stop(); }
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  std::optional<std::string> start() {
    std::error_code ec;
    std::filesystem::create_directories(kSocketDir, ec);
    if (ec) return std::string("cannot create ") + kSocketDir + ": " + ec.message();
    tms::router::RouterOptions ropts;
    for (int i = 0; i < kShards; ++i) {
      auto shard = std::make_unique<Shard>();
      shard->address = std::string(kSocketDir) + "/b" + std::to_string(i) + ".sock";
      shard->cache = std::make_unique<tms::driver::ScheduleCache>();
      tms::serve::ServiceOptions sopts;
      sopts.threads = 1;
      sopts.sim_verify = true;
      sopts.flight = &shard->flight;
      shard->service = std::make_unique<tms::serve::CompileService>(mach_, shard->cache.get(), sopts);
      tms::serve::ServerOptions svopts;
      svopts.unix_path = shard->address;
      shard->server = std::make_unique<tms::serve::SocketServer>(*shard->service, svopts);
      ropts.backends.push_back(shard->address);
      const auto err = shard->server->start();
      shards_.push_back(std::move(shard));
      if (err) return "shard " + std::to_string(i) + ": " + *err;
    }
    router_ = std::make_unique<tms::router::Router>(mach_, ropts);
    if (const auto err = router_->start()) return "router: " + *err;
    tms::serve::ServerOptions svopts;
    svopts.unix_path = router_address();
    router_server_ = std::make_unique<tms::serve::SocketServer>(*router_, svopts);
    if (const auto err = router_server_->start()) return "router server: " + *err;
    return std::nullopt;
  }

  void stop() {
    if (router_ != nullptr) router_->begin_drain();
    if (router_server_ != nullptr) router_server_->drain();
    if (router_ != nullptr) router_->stop();
    router_server_.reset();
    router_.reset();
    for (auto& shard : shards_) {
      if (shard->server != nullptr) shard->server->drain();
      if (shard->service != nullptr) shard->service->shutdown();
    }
    shards_.clear();
    std::error_code ec;
    std::filesystem::remove_all(kSocketDir, ec);
  }

  static std::string router_address() { return std::string(kSocketDir) + "/router.sock"; }
  const std::string& shard_address(int i) const { return shards_[static_cast<std::size_t>(i)]->address; }
  tms::router::Router& router() { return *router_; }

 private:
  struct Shard {
    std::string address;
    std::unique_ptr<tms::driver::ScheduleCache> cache;
    tms::obs::FlightRecorder flight;
    std::unique_ptr<tms::serve::CompileService> service;
    std::unique_ptr<tms::serve::SocketServer> server;
  };

  const tms::machine::MachineModel& mach_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<tms::router::Router> router_;
  std::unique_ptr<tms::serve::SocketServer> router_server_;
};

/// driver.cache_hits as each shard reports it over CLUSTER_STATS, and the
/// merged aggregate.
struct ClusterHits {
  std::vector<double> shards;
  double aggregate = 0.0;
};

std::variant<ClusterHits, std::string> cluster_hits(tms::serve::Client& client) {
  std::string json;
  if (const auto err = client.cluster_stats(json)) return "CLUSTER_STATS: " + *err;
  auto parsed = tms::support::parse_json(json);
  if (const auto* err = std::get_if<std::string>(&parsed)) return "CLUSTER_STATS payload: " + *err;
  const tms::support::JsonValue& root = std::get<tms::support::JsonValue>(parsed);
  ClusterHits out;
  const tms::support::JsonValue* shards = root.find("shards");
  if (shards == nullptr || !shards->is_array()) return std::string("CLUSTER_STATS without shards");
  for (const tms::support::JsonValue& s : shards->items()) {
    const tms::support::JsonValue* ok = s.find("ok");
    // Counter names contain dots, so the last step is a member lookup.
    const tms::support::JsonValue* counters = s.find_path("stats.observability.counters");
    const tms::support::JsonValue* v = counters == nullptr ? nullptr : counters->find("driver.cache_hits");
    if (ok == nullptr || !ok->as_bool() || v == nullptr) return std::string("shard without driver.cache_hits");
    out.shards.push_back(v->as_number());
  }
  const tms::support::JsonValue* agg = root.find_path("aggregate.counters");
  const tms::support::JsonValue* a = agg == nullptr ? nullptr : agg->find("driver.cache_hits");
  if (a == nullptr) return std::string("CLUSTER_STATS without an aggregate driver.cache_hits");
  out.aggregate = a->as_number();
  return out;
}

}  // namespace

Outcome run_serve_routed(const Args& args) {
  Outcome out;
  const tms::machine::MachineModel mach;
  Layers layers;

  Clock::time_point t = Clock::now();
  std::vector<tms::ir::Loop> loops;
  std::vector<tms::ir::Loop> light;
  for (tms::workloads::Kernel& k : tms::workloads::classic_kernels()) {
    for (const char* name : kLightKernels) {
      if (k.loop.name() == name) light.push_back(k.loop);
    }
    loops.push_back(std::move(k.loop));
  }
  for (tms::ir::Loop& l : suite_sample(kSampleLoops)) loops.push_back(std::move(l));
  layers.set("workloads.build_ms", ms_since(t));
  if (light.size() != static_cast<std::size_t>(kLightPerClient)) {
    out.fail("light kernels missing from the classic kernels");
    return out;
  }

  const SpmtConfig configs[2] = {paper_config(), bus_config(kBusCores)};
  std::vector<Key> keys;
  std::vector<tms::serve::Request> key_req;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    for (int c = 0; c < 2; ++c) {
      keys.push_back({l, c});
      key_req.push_back(make_request(loops[l], configs[c]));
    }
  }

  Topology topo(mach);
  if (const auto err = topo.start()) throw std::runtime_error(*err);
  std::vector<tms::serve::Client> clients(kClients);
  tms::serve::Client stats_client;
  for (tms::serve::Client& c : clients) {
    if (const auto err = c.connect_unix(Topology::router_address())) throw std::runtime_error(*err);
  }
  if (const auto err = stats_client.connect_unix(Topology::router_address())) {
    throw std::runtime_error(*err);
  }
  std::vector<tms::serve::Client> direct(kShards);
  for (int i = 0; i < kShards; ++i) {
    if (const auto err = direct[static_cast<std::size_t>(i)].connect_unix(topo.shard_address(i))) {
      throw std::runtime_error(*err);
    }
  }

  // Per client, a fixed request list: its share of the working set in
  // seeded order, kRoundsPerPass times, with one light key in the middle
  // and one at the end.
  const std::vector<std::size_t> order = seeded_order(keys.size(), args.seed);
  std::vector<std::vector<Sent>> plan(kClients);
  for (int r = 0; r < kRoundsPerPass; ++r) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      Sent s;
      s.key = order[i];
      s.req = key_req[order[i]];
      plan[i % kClients].push_back(std::move(s));
    }
  }
  for (std::vector<Sent>& list : plan) {
    for (int l = 0; l < kLightPerClient; ++l) {
      Sent s;
      s.key = SIZE_MAX;
      s.light = l;
      s.req = make_request(light[static_cast<std::size_t>(l)], paper_config());
      const std::size_t at = l == 0 ? list.size() / 2 : list.size();
      list.insert(list.begin() + static_cast<std::ptrdiff_t>(at), std::move(s));
    }
  }
  int next_bandwidth = kFirstLightBandwidth;
  std::uint64_t next_id = 1;

  // Runs one pass of both clients; returns each client's busy time in ms.
  const auto run_clients = [&](std::vector<std::vector<Sent>>& sent) {
    sent = plan;
    for (std::vector<Sent>& list : sent) {
      for (Sent& s : list) {
        s.req.id = next_id++;
        if (s.light >= 0) s.req.bus_bytes_per_cycle = next_bandwidth++;
      }
    }
    std::vector<double> busy_ms(kClients, 0.0);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const Clock::time_point start = Clock::now();
        for (Sent& s : sent[static_cast<std::size_t>(c)]) {
          PB_SPAN("serve.request");
          const Clock::time_point t0 = Clock::now();
          auto res = clients[static_cast<std::size_t>(c)].compile(s.req);
          s.rtt_us = us_since(t0);
          if (auto* r = std::get_if<tms::serve::Response>(&res)) {
            s.resp = std::move(*r);
          } else {
            s.transport_error = std::get<std::string>(res);
          }
        }
        busy_ms[static_cast<std::size_t>(c)] = ms_since(start);
      });
    }
    for (std::thread& th : threads) th.join();
    return busy_ms;
  };

  // Expected answers: a fresh tms_schedule of every key, in process.
  std::vector<ExpectedSchedule> expected;
  for (const Key& k : keys) {
    const auto r = tms::sched::tms_schedule(loops[k.loop], mach, configs[k.config]);
    if (!r.has_value()) throw std::runtime_error(loops[k.loop].name() + ": tms_schedule failed");
    expected.push_back(expected_of(*r));
  }
  std::vector<ExpectedSchedule> light_expected;
  for (const tms::ir::Loop& l : light) {
    const auto r = tms::sched::tms_schedule(l, mach, paper_config());
    if (!r.has_value()) throw std::runtime_error(l.name() + ": tms_schedule failed");
    light_expected.push_back(expected_of(*r));
  }

  // Checks every response of a pass; returns the hits the clients saw.
  const auto check_pass = [&](const std::vector<std::vector<Sent>>& sent) {
    std::uint64_t hits = 0;
    for (const std::vector<Sent>& list : sent) {
      for (const Sent& s : list) {
        if (!s.transport_error.empty()) {
          out.fail("transport: " + s.transport_error);
          continue;
        }
        const ExpectedSchedule& want =
            s.light >= 0 ? light_expected[static_cast<std::size_t>(s.light)] : expected[s.key];
        if (const auto err = check_response(s.req.loop, mach, s.resp, want)) out.fail(*err);
        if (s.resp.cache_hit) ++hits;
        if (s.resp.cache_hit != (s.light < 0)) {
          out.fail(s.req.loop.name() + ": a " + (s.light < 0 ? "warmed" : "never-sent") +
                   " key came back with cache_hit=" + (s.resp.cache_hit ? "1" : "0"));
        }
      }
    }
    return hits;
  };

  // Warm the working set (every key compiled once by its shard), then an
  // untimed warm pass.
  {
    std::vector<std::vector<Sent>> sent;
    run_clients(sent);
    run_clients(sent);
    check_pass(sent);
  }
  EndToEnd e2e;
  e2e.setup_s = ms_since(process_start()) / 1e3;

  ExactCounts exact(out);
  std::vector<double> pass_rate, fresh_rate, pass_p50, pass_p99, sim_rate;
  std::vector<double> total_us, queue_us, schedule_us, validate_us, outside_us;
  std::vector<double> traced_ms, untraced_ms, qe_us, codec_us, hop_us;
  std::vector<int> traced_passes;
  std::uint64_t requests = 0, hits_total = 0;
  std::vector<double> fresh_schedule_ms;
  std::vector<std::uint64_t> forwarded_before;
  for (const auto& b : topo.router().backends_snapshot()) forwarded_before.push_back(b.forwarded);

  const int passes = run_timed_passes(args, [&](int p, bool traced) {
    auto hits_before = cluster_hits(stats_client);
    const tms::obs::CountersSnapshot before = tms::obs::counters_snapshot();
    std::vector<std::vector<Sent>> sent;
    const std::vector<double> busy_ms = run_clients(sent);
    const tms::obs::CountersSnapshot after = tms::obs::counters_snapshot();
    auto hits_after = cluster_hits(stats_client);
    tracer().set_armed(false);

    const std::uint64_t hits = check_pass(sent);
    if (const auto* e = std::get_if<std::string>(&hits_before)) out.fail(*e);
    if (const auto* e = std::get_if<std::string>(&hits_after)) out.fail(*e);
    if (std::holds_alternative<ClusterHits>(hits_before) && std::holds_alternative<ClusterHits>(hits_after)) {
      const ClusterHits& a = std::get<ClusterHits>(hits_before);
      const ClusterHits& b = std::get<ClusterHits>(hits_after);
      // The shards share this process's counter registry, so each one
      // reports every shard's hits and the aggregate counts them once
      // per shard.
      for (std::size_t i = 0; i < a.shards.size(); ++i) {
        if (b.shards[i] - a.shards[i] != static_cast<double>(hits)) {
          out.fail("clients counted " + std::to_string(hits) + " hits, shard " + std::to_string(i) +
                   " reports " + std::to_string(b.shards[i] - a.shards[i]));
        }
      }
      if (b.aggregate - a.aggregate != static_cast<double>(hits * a.shards.size())) {
        out.fail("CLUSTER_STATS aggregate driver.cache_hits does not match the clients' hits");
      }
    }

    std::size_t n = 0;
    std::vector<double> rtt_ms;
    double fresh_us = 0.0;
    int fresh = 0;
    for (const std::vector<Sent>& list : sent) {
      for (const Sent& s : list) {
        ++n;
        rtt_ms.push_back(s.rtt_us / 1e3);
        total_us.push_back(static_cast<double>(s.resp.t_total_us));
        queue_us.push_back(static_cast<double>(s.resp.t_queue_us));
        schedule_us.push_back(static_cast<double>(s.resp.t_schedule_us));
        validate_us.push_back(static_cast<double>(s.resp.t_validate_us));
        outside_us.push_back(s.rtt_us - static_cast<double>(s.resp.t_total_us));
        if (s.light >= 0) {
          fresh_us += static_cast<double>(s.resp.t_schedule_us);
          ++fresh;
        }
      }
    }
    requests += n;
    pass_p50.push_back(quantile(rtt_ms, 0.50));
    pass_p99.push_back(quantile(rtt_ms, 0.99));
    hits_total += hits;
    // Closed loop: the pass's throughput is the sum of each client's own
    // rate, so one client finishing early does not count as idle time.
    double rate = 0.0;
    for (int c = 0; c < kClients; ++c) {
      rate += static_cast<double>(sent[static_cast<std::size_t>(c)].size()) /
              (busy_ms[static_cast<std::size_t>(c)] / 1e3);
    }
    pass_rate.push_back(rate);
    fresh_rate.push_back(static_cast<double>(fresh) / (fresh_us / 1e6));
    if (traced) fresh_schedule_ms.push_back(fresh_us / 1e3);
    (traced ? traced_ms : untraced_ms).push_back(*std::max_element(busy_ms.begin(), busy_ms.end()));
    for (const char* c : {"sched.attempts", "sched.attempts_feasible", "sched.slots_tried",
                          "sched.slot_reject.mrt", "sched.slot_reject.c_delay",
                          "sched.slot_reject.p_max", "sched.slot_reject.headroom",
                          "sched.ejections", "sched.pmax_sweeps_skipped", "router.retries",
                          "router.hedges"}) {
      exact.expect(c, static_cast<double>(counter_delta(before, after, c)));
    }

    // Simulator-backed re-verification of every working-set key's served
    // schedule, as a shard's sim-verify does it: lower_kernel +
    // quick_estimate against the sequential reference.
    if (traced) {
      traced_passes.push_back(p);
      tracer().set_armed(true);
    }
    std::int64_t cycles[2] = {0, 0}, instr = 0;
    double sim_us = 0.0;
    std::vector<bool> seen(keys.size(), false);
    for (const std::vector<Sent>& list : sent) {
      for (const Sent& s : list) {
        if (s.light >= 0 || seen[s.key] || !s.resp.ok) continue;
        seen[s.key] = true;
        const Key& k = keys[s.key];
        const tms::ir::Loop& loop = loops[k.loop];
        const SpmtConfig& cfg = configs[k.config];
        tms::sched::Schedule sched(loop, mach, s.resp.ii);
        for (int v = 0; v < loop.num_instrs(); ++v) sched.set_slot(v, s.resp.slots[static_cast<std::size_t>(v)]);
        tms::check::CheckReport valid;
        {
          PB_SPAN("check.validate");
          valid = tms::check::validate_schedule(sched, cfg, {s.resp.c_delay_threshold, s.resp.p_max});
        }
        if (!valid.ok()) out.fail(loop.name() + ": validate_schedule: " + valid.to_string());
        const Clock::time_point q0 = Clock::now();
        tms::codegen::KernelProgram kp;
        {
          PB_SPAN("codegen.lower");
          kp = tms::codegen::lower_kernel(sched, cfg);
        }
        tms::spmt::QuickEstimate qe;
        {
          PB_SPAN("spmt.quick_estimate");
          qe = tms::spmt::quick_estimate(loop, kp, cfg);
        }
        const double us = us_since(q0);
        sim_us += us;
        if (traced) qe_us.push_back(us);
        {
          PB_SPAN("check.kernel_check");
          const tms::check::CheckReport kv = tms::check::validate_kernel_program(kp, sched, cfg);
          if (!kv.ok()) out.fail(loop.name() + ": validate_kernel_program: " + kv.to_string());
        }
        if (!qe.semantics_ok) out.fail(loop.name() + ": quick_estimate diverged from the reference");
        cycles[k.config] += qe.stats.total_cycles;
        instr += qe.stats.instances_executed;
        exact.expect("qe.cycles." + std::to_string(s.key), static_cast<double>(qe.stats.total_cycles));
      }
    }
    tracer().set_armed(false);
    sim_rate.push_back(static_cast<double>(instr) / sim_us);
    exact.expect("cycles.paper", static_cast<double>(cycles[0]));
    exact.expect("cycles.bus", static_cast<double>(cycles[1]));

    if (traced) {
      // Codec: serialise_request + encode_frame + parse_response on the
      // pass's own payloads, and the router hop: the same working-set
      // request sent straight to the shard that owns it.
      std::vector<double> via_router, straight;
      for (const std::vector<Sent>& list : sent) {
        for (const Sent& s : list) {
          const std::string resp_payload = tms::serve::serialise_response(s.resp);
          const Clock::time_point c0 = Clock::now();
          const std::string payload = tms::serve::serialise_request(s.req);
          const std::string frame = tms::serve::encode_frame(tms::serve::FrameType::kRequest, payload);
          const auto parsed = tms::serve::parse_response(resp_payload);
          codec_us.push_back(us_since(c0));
          if (frame.size() <= payload.size() || !std::holds_alternative<tms::serve::Response>(parsed)) {
            out.fail("codec round trip failed");
          }
          if (s.light >= 0) continue;
          const SpmtConfig cfg = config_of(s.req);
          const std::string owner = topo.router().ring().primary(
              tms::driver::ScheduleCache::key(s.req.loop, mach, cfg, s.req.scheduler));
          for (int i = 0; i < kShards; ++i) {
            if (topo.shard_address(i) != owner) continue;
            const Clock::time_point d0 = Clock::now();
            auto res = direct[static_cast<std::size_t>(i)].compile(s.req);
            straight.push_back(us_since(d0));
            via_router.push_back(s.rtt_us);
            if (!std::holds_alternative<tms::serve::Response>(res)) out.fail("direct shard request failed");
          }
        }
      }
      hop_us.push_back(median(via_router) - median(straight));
    }
  });
  out.attempted = requests;

  if (!args.trace) {
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.compile_loops_per_s = fast_rate(fresh_rate);
    e2e.sched_slots = exact.get("sched.slots_tried");
    e2e.sim_minstr_per_s = fast_rate(sim_rate);
    e2e.sim_cycles = exact.get("cycles.paper");
    e2e.sim_cycles_bus = exact.get("cycles.bus");
    e2e.requests_per_s = fast_rate(pass_rate);
    e2e.request_ms_p50 = fast_time(pass_p50);
    e2e.request_ms_p99 = fast_time(pass_p99);
    e2e.emit(out);
    return out;
  }

  const auto self = tracer().self_ms();
  // The shards schedule the light keys; their echoed schedule stage is
  // the scheduler's time here.
  layers.set("sched.tms_ms", median(fresh_schedule_ms));
  const double attempts = exact.get("sched.attempts");
  layers.set("sched.attempts", attempts);
  layers.set("sched.attempts_per_loop", attempts / (kClients * kLightPerClient));
  layers.set("sched.feasible_per_attempt", exact.get("sched.attempts_feasible") / attempts);
  layers.set("sched.slots_per_attempt", exact.get("sched.slots_tried") / attempts);
  layers.set("sched.reject.mrt", exact.get("sched.slot_reject.mrt"));
  layers.set("sched.reject.c_delay", exact.get("sched.slot_reject.c_delay"));
  layers.set("sched.reject.p_max", exact.get("sched.slot_reject.p_max"));
  layers.set("sched.reject.headroom", exact.get("sched.slot_reject.headroom"));
  layers.set("sched.ejections", exact.get("sched.ejections"));
  layers.set("sched.pmax_sweeps_skipped", exact.get("sched.pmax_sweeps_skipped"));
  layers.set("check.validate_ms", median_self_ms(self, "check.validate", traced_passes));
  layers.set("check.kernel_check_ms", median_self_ms(self, "check.kernel_check", traced_passes));
  layers.set("codegen.lower_ms", median_self_ms(self, "codegen.lower", traced_passes));
  layers.set("spmt.quick_estimate_us", median(qe_us));
  layers.set("driver.cache_hit_ratio", static_cast<double>(hits_total) / static_cast<double>(requests));
  layers.set("serve.total_us_p50", median(total_us));
  layers.set("serve.queue_us_p50", median(queue_us));
  layers.set("serve.schedule_us_p50", median(schedule_us));
  layers.set("serve.validate_us_p50", median(validate_us));
  layers.set("serve.outside_us_p50", median(outside_us));
  layers.set("serve.codec_us", median(codec_us));
  layers.set("router.hop_us_p50", median(hop_us));
  std::uint64_t forwarded = 0, busiest = 0;
  std::size_t b = 0;
  for (const auto& snap : topo.router().backends_snapshot()) {
    const std::uint64_t d = snap.forwarded - forwarded_before[b++];
    forwarded += d;
    busiest = std::max(busiest, d);
  }
  layers.set("router.busiest_shard_share", static_cast<double>(busiest) / static_cast<double>(forwarded));
  layers.set("router.retries", exact.get("router.retries"));
  layers.set("router.hedges", exact.get("router.hedges"));
  layers.set("obs.trace_overhead_pct", overhead_pct(traced_ms, untraced_ms));
  out.metrics = layers.metrics();
  return out;
}

}  // namespace perfbench
