// The TCP workload: a NetServer with default options on loopback, driven
// by closed-loop NetClients -- first one client (the idle phase), then
// one client per hardware thread (the loaded phase). Each client sends
// its next request only after the previous reply arrived.
//
//   tcp-snapshot  sixteen lists are registered and read once per request
//                 kind at set-up; clients then read them by handle under
//                 skewed key popularity with 5% update_snapshot writes, so
//                 the result and slab caches serve most reads and every
//                 write invalidates them.
//
// Reads are rank, plus-scan and seg-sum in turn, so each (key, kind) pair
// is read often enough that its cached result is usually warm. Every
// answer is compared bit for bit with the serial oracle; STALE_GENERATION
// on a snapshot read is a retarget (counted as a retry), any other non-OK
// answer or transport error is a failure.
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "common.hpp"
#include "lists/validate.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

namespace lr90bench {
namespace {

using lr90::Engine;
using lr90::EngineServer;
using lr90::net::NetClient;
using lr90::net::NetServer;
using lr90::net::NetServerOptions;
using lr90::net::ResponseFrame;
using lr90::net::WireStatus;

constexpr std::size_t kTcpN = 32768;
constexpr double kRoundSeconds = 1.0;  ///< per fresh server, untraced
constexpr double kIdleShare = 0.4;  ///< of each round; the rest is loaded
constexpr const char* kClientThreadName = "lr90b-client";

/// The request kinds of the TCP mix, one per request class, read in turn.
const OpKind kTcpKinds[] = {
    {true, ScanOp::kPlus},
    {false, ScanOp::kPlus},
    {false, ScanOp::kSegSum},
};
constexpr std::size_t kTcpKindCount = std::size(kTcpKinds);

/// A list with the expected answer of every TCP request kind.
struct Oracled {
  OrderedList list;
  std::vector<std::vector<value_t>> answers;  ///< by kTcpKinds index
};

Oracled make_oracled(lr90::Rng& rng) {
  Oracled o{random_ordered(kTcpN, rng), {}};
  for (const OpKind& k : kTcpKinds)
    o.answers.push_back(expected_vector(o.list, k));
  return o;
}

/// One finished operation as its client saw it.
struct Op {
  bool ok = false;
  bool mismatch = false;
  OpClass cls = OpClass::kRank;
  bool read = true;  ///< false for snapshot writes (no request class)
  double latency_s = 0.0;
  std::uint64_t retries = 0;
  std::string error;
};

/// Checks a response against the expected answer.
Op judge(const lr90::Status& transport, const ResponseFrame& resp,
         const std::vector<value_t>& want, OpClass cls, double latency_s) {
  Op op;
  op.cls = cls;
  op.latency_s = latency_s;
  if (!transport.ok()) {
    op.error = "transport: " + transport.message;
  } else if (resp.status != WireStatus::kOk) {
    op.error = std::string("server answered ") +
               lr90::net::wire_status_name(resp.status);
  } else if (resp.values != want) {
    op.mismatch = true;
    op.error = "answer differs from the serial oracle";
  } else {
    op.ok = true;
  }
  return op;
}

/// Latencies and failures of one phase.
struct PhaseLog {
  std::vector<double> all_ms;
  std::vector<double> class_ms[3];
  std::uint64_t ok = 0;
  double wall_s = 0.0;

  void add(const Op& op, Report& rep) {
    ++rep.attempted;
    rep.retries += op.retries;
    if (!op.ok) {
      ++rep.failed;
      if (op.mismatch) ++rep.mismatches;
      if (rep.notes.size() < 20) rep.note(op.error);
      return;
    }
    ++ok;
    all_ms.push_back(op.latency_s * 1e3);
    if (op.read)
      class_ms[static_cast<int>(op.cls)].push_back(op.latency_s * 1e3);
  }
  void merge(const PhaseLog& o) {
    all_ms.insert(all_ms.end(), o.all_ms.begin(), o.all_ms.end());
    for (int c = 0; c < 3; ++c)
      class_ms[c].insert(class_ms[c].end(), o.class_ms[c].begin(),
                         o.class_ms[c].end());
    ok += o.ok;
  }
};

/// A closed-loop client: one call = one operation.
using Step = std::function<Op(NetClient&, std::uint64_t i)>;

/// Runs `clients` closed-loop clients for `seconds`, each on its own
/// connection and thread; make_step(c) builds client c's step.
PhaseLog run_loaded(std::uint16_t port, unsigned clients, double seconds,
                    const std::function<Step(unsigned)>& make_step,
                    Report& rep, std::map<long, ThreadCpu>* cpu_before,
                    std::map<long, ThreadCpu>* cpu_after) {
  std::vector<NetClient> conns(clients);
  std::vector<Step> steps;
  for (unsigned c = 0; c < clients; ++c) {
    steps.push_back(make_step(c));
    const lr90::Status s = conns[c].connect_to("127.0.0.1", port);
    if (!s.ok()) rep.note("loaded client connect: " + s.message);
  }
  std::vector<PhaseLog> logs(clients);
  std::vector<Report> reps(clients);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      pthread_setname_np(pthread_self(), kClientThreadName);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const double t0 = now_s();
      for (std::uint64_t i = 0; now_s() - t0 < seconds; ++i) {
        if (!conns[c].connected()) break;
        logs[c].add(steps[c](conns[c], i), reps[c]);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  if (cpu_before != nullptr) *cpu_before = thread_cpu();
  const double t0 = now_s();
  go.store(true);
  for (std::thread& t : threads) t.join();
  PhaseLog all;
  all.wall_s = now_s() - t0;
  if (cpu_after != nullptr) *cpu_after = thread_cpu();
  for (unsigned c = 0; c < clients; ++c) {
    all.merge(logs[c]);
    rep.attempted += reps[c].attempted;
    rep.failed += reps[c].failed;
    rep.mismatches += reps[c].mismatches;
    rep.retries += reps[c].retries;
    for (std::string& n : reps[c].notes)
      if (rep.notes.size() < 20) rep.note(std::move(n));
  }
  return all;
}

/// Busiest non-client thread's CPU share of the loaded phase.
double busiest_server_thread(const std::map<long, ThreadCpu>& before,
                             const std::map<long, ThreadCpu>& after,
                             double wall_s) {
  double busiest = 0.0;
  for (const auto& [tid, t] : after) {
    if (t.name == kClientThreadName) continue;
    const auto it = before.find(tid);
    const double d = t.cpu_s - (it == before.end() ? 0.0 : it->second.cpu_s);
    busiest = std::max(busiest, d);
  }
  return wall_s > 0 ? busiest / wall_s : 0.0;
}

/// The replayed layers of one traced request.
struct Replay {
  double server_decode_us = 0, validate_us = 0, engine_run_us = 0;
  double submit_wait_us = 0, server_encode_us = 0, client_decode_us = 0;
  double worker_run_us = 0;  ///< RunStats::wall_ns of the served run

  /// Queue hand-off of the replayed EngineServer request: submit to
  /// ready, minus the input validation and the execution the worker's
  /// engine timed itself.
  double handoff_us() const {
    return submit_wait_us - validate_us - worker_run_us;
  }
  /// The replayed codec spans of a round trip: server decode, server
  /// encode, client decode.
  double codec_us() const {
    return server_decode_us + server_encode_us + client_decode_us;
  }
};

/// Everything a traced run needs besides the server under test: an
/// Engine and an EngineServer configured as NetServer configures its own
/// (input validation on, reject when full), to replay requests through
/// the layers one at a time.
struct Tracer {
  SpanRecorder spans{true};
  const NetServer* served_by = nullptr;  ///< the server under test
  Engine engine;
  EngineServer server;
  std::vector<double> untraced_ms, traced_ms;
  std::vector<double> transport_us, handoff_us, update_us;
  std::vector<CoreSample> runs;  ///< the replayed Engine runs
  std::vector<std::uint8_t> response_buffer;  ///< reused like the server's

  explicit Tracer(const lr90::ServerOptions& serve)
      : engine(serve.engine), server(serve) {}

  /// Times `f` as a span named `name` under `parent`; returns microseconds.
  template <class F>
  double timed(const char* name, std::uint64_t req, std::uint32_t parent,
               F&& f) {
    const double t0 = now_s();
    const std::uint32_t id = spans.begin(name, req, parent);
    f();
    spans.end(id);
    return (now_s() - t0) * 1e6;
  }

  /// Replays a request frame and its answer through each layer in turn.
  Replay replay(const std::vector<std::uint8_t>& frame,
                const LinkedList& list, const OpKind& kind,
                const std::vector<value_t>& answer, std::uint64_t req) {
    namespace net = lr90::net;
    Replay r;
    const std::uint32_t root = spans.begin("replay", req);
    net::RequestFrame decoded;
    r.server_decode_us = timed("net.server_decode", req, root, [&] {
      net::FrameView view;
      std::size_t len = 0;
      if (net::parse_frame(frame.data(), frame.size(), view, len) ==
          net::WireError::kOk)
        net::decode_request(view, decoded);
    });
    r.validate_us = timed("lists.validate", req, root,
                          [&] { (void)lr90::validate_list(list); });
    lr90::Request q;
    q.list = &list;
    q.rank = kind.rank;
    q.op = kind.op;
    // One untimed run first, so the two timed runs below both find the
    // list in cache, as the server's worker does after the decode.
    (void)engine.run(q);
    lr90::RunResult served;
    r.submit_wait_us = timed("serve.submit_wait", req, root,
                             [&] { served = server.submit(q).get(); });
    r.worker_run_us = served.stats.wall_ns / 1e3;
    lr90::RunResult run;
    r.engine_run_us =
        timed("core.engine_run", req, root, [&] { run = engine.run(q); });
    if (run.ok())
      runs.push_back(CoreSample{kind, r.engine_run_us / 1e6, run.stats});
    // The server appends responses to a per-connection buffer that keeps
    // its capacity; so does this replay.
    std::vector<std::uint8_t>& out = response_buffer;
    out.clear();
    r.server_encode_us = timed("net.server_encode", req, root, [&] {
      net::encode_values_response(out, 1, WireStatus::kOk, answer);
    });
    r.client_decode_us = timed("net.client_decode", req, root, [&] {
      net::FrameView view;
      std::size_t len = 0;
      ResponseFrame resp;
      if (net::parse_frame(out.data(), out.size(), view, len) ==
          net::WireError::kOk)
        net::decode_response(view, resp);
    });
    spans.end(root);
    return r;
  }

  /// One traced round trip of a prebuilt frame: encode and send/receive
  /// are spans of the request; returns the transport status.
  lr90::Status round_trip(NetClient& client, std::uint64_t req,
                          const std::function<void(std::vector<std::uint8_t>&)>&
                              encode,
                          std::vector<std::uint8_t>& frame,
                          ResponseFrame& resp, double& rt_us) {
    const std::uint32_t root = spans.begin("request", req);
    frame.clear();
    timed("net.client_encode", req, root, [&] { encode(frame); });
    lr90::Status s;
    rt_us = timed("net.round_trip", req, root, [&] {
      s = client.send_raw(frame.data(), frame.size());
      if (s.ok()) s = client.read_response(resp);
    });
    spans.end(root);
    return s;
  }

  /// The per-layer metrics of the TCP workload.
  void report(Report& rep, const OrderedList& probe, const std::string& path) {
    const auto by_name = spans.self_us_by_name();
    const auto med = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : percentile(it->second, 50.0);
    };
    rep.set("net.client_encode_us", med("net.client_encode"), "us");
    rep.set("net.client_decode_us", med("net.client_decode"), "us");
    rep.set("net.server_decode_us", med("net.server_decode"), "us");
    rep.set("net.server_encode_us", med("net.server_encode"), "us");
    rep.set("lists.validate_us", med("lists.validate"), "us");
    core_layer_metrics(runs, kTcpN, rep);
    rep.set("serve.handoff_us", percentile(handoff_us, 50.0), "us");
    rep.set("serve.update_us", percentile(update_us, 50.0), "us");
    rep.set("net.transport_us", percentile(transport_us, 50.0), "us");
    rep.set("trace.overhead_us",
            (percentile(traced_ms, 50.0) - percentile(untraced_ms, 50.0)) *
                1e3,
            "us");
    rep.set("analysis.auto_plan_regret",
            auto_plan_regret(probe, server.options().engine, 15, rep),
            "ratio");
    rep.note(describe_latency("idle untraced", untraced_ms, "ms"));
    rep.note(describe_latency("idle traced", traced_ms, "ms"));
    if (spans.write_jsonl(path))
      rep.note("spans: " + std::to_string(spans.spans().size()) + " -> " +
               path);
  }
};

/// Starts a NetServer with default options plus one connected client, and
/// runs `warm` (registration and the first requests) on it. Returns the
/// set-up seconds, or a negative value on failure. The answers `warm` kept
/// are checked by the caller, after this clock has stopped.
double start_server(std::unique_ptr<NetServer>& server, NetClient& client,
                    const std::function<bool(NetClient&)>& warm,
                    Report& rep) {
  client.close();
  server.reset();
  const double t0 = now_s();
  server = std::make_unique<NetServer>(NetServerOptions{});
  lr90::Status s = server->start();
  if (s.ok()) s = client.connect_to("127.0.0.1", server->port());
  if (!s.ok()) {
    rep.note("server start: " + s.message);
    return -1.0;
  }
  if (!warm(client)) {
    rep.note("set-up: a registration or warm-up read failed");
    return -1.0;
  }
  return now_s() - t0;
}

/// Set-up, idle phase, loaded phase and the shared metrics of a TCP
/// workload. `warm` registers state and sends the first request;
/// `make_step(c, clients)` builds client c's closed-loop step.
struct TcpWorkload {
  std::function<bool(NetClient&)> warm;
  /// Compares the answers the last warm() kept with the oracle.
  std::function<bool()> warm_answers_match;
  std::function<Step(unsigned client, unsigned clients)> make_step;
  /// Traced idle step: a request that goes through Tracer.
  std::function<Op(NetClient&, std::uint64_t i, Tracer&)> traced_step;
  std::uint64_t working_set_bytes = 0;
  const OrderedList* regret_probe = nullptr;  ///< list the planner is probed on
};

Report run_tcp(const RunConfig& cfg, TcpWorkload& w) {
  Report rep;
  rep.working_set_bytes = w.working_set_bytes;
  const unsigned clients = std::max(1u, std::thread::hardware_concurrency());
  // An untraced run measures a fresh server per second in turn and reports
  // the best quartile over them: CPU steal and where a server's threads
  // land shift one server's whole latency level, so one server per run is
  // not steady.
  const int rounds =
      cfg.trace ? 1
                : std::max(1, static_cast<int>(cfg.seconds / kRoundSeconds));
  const double round_s = cfg.seconds / rounds;
  std::unique_ptr<NetServer> server;
  NetClient client;
  std::unique_ptr<Tracer> tracer;
  std::vector<double> setups;
  PhaseLog idle, loaded;  // pooled over rounds
  std::vector<PhaseLog> idle_rounds, loaded_rounds;
  std::map<long, ThreadCpu> cpu_a, cpu_b;
  double cpu_s = 0.0;
  for (int round = 0; round < rounds; ++round) {
    // Set-up: a fresh server through registration and its first request.
    const double setup = start_server(server, client, w.warm, rep);
    if (setup < 0) {
      ++rep.attempted;
      ++rep.failed;
      return rep;
    }
    setups.push_back(setup);
    if (!w.warm_answers_match()) {
      ++rep.attempted;
      ++rep.failed;
      ++rep.mismatches;
      rep.note("a warm-up answer differs from the serial oracle");
      return rep;
    }
    if (cfg.trace) {
      tracer = std::make_unique<Tracer>(server->options().serve);
      tracer->served_by = server.get();
    }
    const double cpu0 = process_cpu_s();

    // Idle phase: this thread is the one client.
    const Step step = w.make_step(0, 1);
    PhaseLog ri;
    const double t0 = now_s();
    // At least one request of every kind, so each round has a sample of
    // every request class.
    for (std::uint64_t i = 0;
         now_s() - t0 < round_s * kIdleShare || i < kTcpKindCount; ++i) {
      if (!client.connected()) break;
      if (tracer) {
        // Alternate plain and traced requests so the traced run carries
        // its own untraced baseline for the tracing overhead.
        Op plain = step(client, i);
        if (plain.ok) tracer->untraced_ms.push_back(plain.latency_s * 1e3);
        ri.add(plain, rep);
        Op traced = w.traced_step(client, i, *tracer);
        if (traced.ok) tracer->traced_ms.push_back(traced.latency_s * 1e3);
        ri.add(traced, rep);
      } else {
        ri.add(step(client, i), rep);
      }
    }
    ri.wall_s = now_s() - t0;
    idle.merge(ri);
    idle.wall_s += ri.wall_s;
    idle_rounds.push_back(std::move(ri));

    // Loaded phase: one client per hardware thread.
    const PhaseLog l = run_loaded(
        server->port(), clients, round_s * (1.0 - kIdleShare),
        [&](unsigned c) { return w.make_step(c, clients); }, rep, &cpu_a,
        &cpu_b);
    loaded.merge(l);
    loaded.wall_s += l.wall_s;
    loaded_rounds.push_back(l);
    cpu_s += process_cpu_s() - cpu0;
  }

  rep.note(describe_latency("idle latency", idle.all_ms, "ms"));
  rep.note(describe_latency("loaded latency (" + std::to_string(clients) +
                                " clients)",
                            loaded.all_ms, "ms"));
  if (!cfg.trace) {
    // Each figure is the best quartile over rounds of that round's figure
    // -- the lower quartile of a time, the upper of a rate. CPU steal from
    // other tenants only ever slows a round down and comes in bursts, so
    // the rounds it spares set the figure.
    const auto over_rounds = [](const std::vector<PhaseLog>& rounds,
                                const auto& f, bool higher_is_better = false) {
      std::vector<double> v;
      for (const PhaseLog& r : rounds) v.push_back(f(r));
      return percentile(v, higher_is_better ? 75.0 : 25.0);
    };
    const auto pct = [](double p) {
      return [p](const PhaseLog& r) { return percentile(r.all_ms, p); };
    };
    rep.set("setup_s", percentile(setups, 50.0), "s");
    rep.set("idle_latency_p50_ms", over_rounds(idle_rounds, pct(50.0)), "ms");
    rep.set("idle_latency_p75_ms", over_rounds(idle_rounds, pct(75.0)), "ms");
    rep.set("loaded_req_per_s",
            over_rounds(
                loaded_rounds,
                [](const PhaseLog& r) {
                  return static_cast<double>(r.ok) / r.wall_s;
                },
                true),
            "req/s");
    rep.set("loaded_latency_p50_ms", over_rounds(loaded_rounds, pct(50.0)),
            "ms");
    rep.set("loaded_latency_p75_ms", over_rounds(loaded_rounds, pct(75.0)),
            "ms");
    const auto per_elem = [&](OpClass c) {
      return over_rounds(idle_rounds,
                         [c](const PhaseLog& r) {
                           return percentile(r.class_ms[static_cast<int>(c)],
                                             50.0);
                         }) *
             1e6 / static_cast<double>(kTcpN);
    };
    rep.set("rank_ns_per_elem", per_elem(OpClass::kRank), "ns");
    rep.set("lane32_scan_ns_per_elem", per_elem(OpClass::kLane32), "ns");
    rep.set("wide_scan_ns_per_elem", per_elem(OpClass::kWide), "ns");
    rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
    server->stop();
    return rep;
  }

  const lr90::NetStats ns = server->net_stats();
  const lr90::ServerStats ss = server->serve_stats();
  server->stop();
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double frames = static_cast<double>(ns.frames_in);
  rep.set("net.bytes_per_req",
          ratio(static_cast<double>(ns.bytes_in + ns.bytes_out), frames),
          "bytes");
  rep.set("net.retry_after", static_cast<double>(ns.retry_after_sent),
          "count");
  rep.set("net.protocol_errors", static_cast<double>(ns.protocol_errors),
          "count");
  rep.set("net.busiest_thread_cpu_frac",
          busiest_server_thread(cpu_a, cpu_b, loaded.wall_s), "ratio");
  rep.set("serve.batch_mean",
          ratio(static_cast<double>(ss.completed),
                static_cast<double>(ss.batches)),
          "count");
  rep.set("serve.collapsed", static_cast<double>(ss.collapsed), "count");
  rep.set("serve.queue_depth_hwm", static_cast<double>(ss.queue_depth_hwm),
          "count");
  rep.set("serve.result_hit_ratio",
          ratio(static_cast<double>(ss.result_hits),
                static_cast<double>(ss.result_hits + ss.result_misses)),
          "ratio");
  rep.set("serve.slab_hit_ratio",
          ratio(static_cast<double>(ss.slab_hits),
                static_cast<double>(ss.slab_hits + ss.slab_misses)),
          "ratio");
  rep.set("serve.result_evictions", static_cast<double>(ss.result_evictions),
          "count");
  rep.set("serve.slab_evictions", static_cast<double>(ss.slab_evictions),
          "count");
  rep.set("serve.engine_runs_per_req",
          ratio(static_cast<double>(ss.tier_legacy_runs + ss.tier_packed_runs +
                                    ss.tier_simd_runs),
                static_cast<double>(ss.submitted)),
          "ratio");
  rep.set("serve.rejected", static_cast<double>(ss.rejected), "count");
  rep.set("serve.stale_rejections", static_cast<double>(ss.stale_rejections),
          "count");
  rep.set("serve.deadline_expired", static_cast<double>(ss.deadline_expired),
          "count");
  rep.set("proc.cpu_s_per_req",
          ratio(cpu_s, static_cast<double>(idle.ok + loaded.ok)), "s");
  tracer->report(rep, *w.regret_probe, cfg.scratch + "/spans-" + cfg.workload + "-" +
                          std::to_string(cfg.seed) + ".jsonl");
  return rep;
}

}  // namespace

Report run_tcp_snapshot(const RunConfig& cfg) {
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kVariants = 2;  ///< generation g holds (g-1) % 2
  constexpr std::uint64_t kWriteEvery = 20;  ///< 5% of a client's ops
  lr90::Rng rng(cfg.seed);
  // variants[key][v]: the list content of every generation g of `key`
  // with (g - 1) % kVariants == v, so every (key, generation) pair has a
  // known oracle.
  std::vector<std::vector<Oracled>> variants(kKeys);
  for (auto& v : variants)
    for (std::size_t i = 0; i < kVariants; ++i) v.push_back(make_oracled(rng));
  // Zipf(1) key popularity.
  std::vector<double> cdf(kKeys);
  double total = 0.0;
  for (std::size_t k = 0; k < kKeys; ++k) total += 1.0 / static_cast<double>(k + 1);
  double acc = 0.0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    acc += 1.0 / static_cast<double>(k + 1) / total;
    cdf[k] = acc;
  }
  const auto draw_key = [cdf](lr90::Rng& r) {
    const double u = r.uniform_real();
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                     cdf.begin(),
                                 kKeys - 1));
  };

  // Server-side handles and each key's current generation, written only
  // by the key's one writer (key % clients).
  std::vector<std::uint64_t> ids(kKeys);
  std::vector<std::atomic<std::uint64_t>> current(kKeys);

  const auto variant_of = [&](std::size_t key, std::uint64_t gen)
      -> const Oracled& { return variants[key][(gen - 1) % kVariants]; };

  /// A pinned read: retargets on STALE_GENERATION (a retry, not a
  /// failure) and checks the answer against that generation's oracle.
  const auto read = [&](NetClient& c, std::uint64_t& pinned, std::size_t key,
                        std::size_t k, ResponseFrame& resp,
                        std::uint64_t& retries) {
    const OpKind& kind = kTcpKinds[k];
    lr90::Status s;
    for (int attempt = 0; attempt < 16; ++attempt) {
      s = kind.rank ? c.snapshot_rank(ids[key], pinned, resp)
                    : c.snapshot_scan(ids[key], pinned, kind.op, resp);
      if (!s.ok() || resp.status != WireStatus::kStaleGeneration) break;
      ++retries;
      pinned = resp.generation;
    }
    return s;
  };
  const auto write = [&](NetClient& c, std::size_t key, ResponseFrame& resp) {
    const std::uint64_t next = current[key].load() + 1;
    lr90::Status s =
        c.update_snapshot(ids[key], variant_of(key, next).list.list, resp);
    if (s.ok() && resp.status == WireStatus::kOk) {
      if (resp.generation != next)
        s = lr90::Status::invalid("update returned generation " +
                                  std::to_string(resp.generation));
      else
        current[key].store(next);
    }
    return s;
  };

  TcpWorkload w;
  w.working_set_bytes = kKeys * kVariants * kTcpN *
                        (sizeof(index_t) + sizeof(value_t) * (1 + kTcpKindCount));
  w.regret_probe = &variants[0][0].list;
  // warm_values[key * kTcpKindCount + k]: the first read of each (key, kind).
  std::vector<std::vector<value_t>> warm_values(kKeys * kTcpKindCount);
  w.warm = [&](NetClient& c) {
    ResponseFrame resp;
    for (std::size_t key = 0; key < kKeys; ++key) {
      if (!c.register_snapshot(variants[key][0].list.list, resp).ok() ||
          resp.status != WireStatus::kOk)
        return false;
      ids[key] = resp.snapshot_id;
      current[key].store(resp.generation);
    }
    for (std::size_t key = 0; key < kKeys; ++key) {
      for (std::size_t k = 0; k < kTcpKindCount; ++k) {
        std::uint64_t pinned = 1, retries = 0;
        if (!read(c, pinned, key, k, resp, retries).ok() ||
            resp.status != WireStatus::kOk)
          return false;
        warm_values[key * kTcpKindCount + k] = std::move(resp.values);
      }
    }
    return true;
  };
  w.warm_answers_match = [&] {
    for (std::size_t key = 0; key < kKeys; ++key)
      for (std::size_t k = 0; k < kTcpKindCount; ++k)
        if (warm_values[key * kTcpKindCount + k] != variants[key][0].answers[k])
          return false;
    return true;
  };

  struct ClientState {
    lr90::Rng rng;
    std::vector<std::uint64_t> pinned;
  };
  const auto op_for = [&](ClientState& st, unsigned client, unsigned clients,
                          NetClient& c, std::uint64_t i,
                          Tracer* tracer) -> Op {
    // Every kWriteEvery-th op of a client is a write (a fixed share keeps
    // the hit/miss/write mix of each round the same); client c writes
    // only keys with key % clients == c.
    if (i % kWriteEvery == kWriteEvery - 1 && client < kKeys) {
      std::size_t key = draw_key(st.rng);
      key = key - key % clients + client;
      if (key >= kKeys) key -= clients;
      ResponseFrame resp;
      const double t0 = now_s();
      const std::uint32_t span =
          tracer ? tracer->spans.begin("serve.update", i) : 0;
      const lr90::Status s = write(c, key, resp);
      if (tracer) {
        tracer->spans.end(span);
        tracer->update_us.push_back((now_s() - t0) * 1e6);
      }
      Op op;
      op.read = false;
      op.latency_s = now_s() - t0;
      if (!s.ok())
        op.error = "update: " + s.message;
      else if (resp.status != WireStatus::kOk)
        op.error = std::string("update answered ") +
                   lr90::net::wire_status_name(resp.status);
      else
        op.ok = true;
      return op;
    }
    const std::size_t key = draw_key(st.rng);
    const std::size_t k = i % kTcpKindCount;
    const OpKind& kind = kTcpKinds[k];
    std::uint64_t& pinned = st.pinned[key];
    ResponseFrame resp;
    std::uint64_t retries = 0;
    const double t0 = now_s();
    lr90::Status s;
    std::vector<std::uint8_t> frame;
    double rt_us = 0.0;
    std::uint64_t hits0 = 0;
    if (tracer == nullptr) {
      s = read(c, pinned, key, k, resp, retries);
    } else {
      // Traced reads send the frame themselves so the encode is a span.
      // The idle phase has this one client, so a rise of the server's
      // result-hit count marks a read the result cache answered.
      hits0 = tracer->served_by->serve_stats().result_hits;
      for (int attempt = 0; attempt < 16; ++attempt) {
        const std::uint32_t id = static_cast<std::uint32_t>(i) | 0x80000000u;
        s = tracer->round_trip(
            c, i,
            [&](std::vector<std::uint8_t>& f) {
              if (kind.rank)
                lr90::net::encode_snapshot_rank_request(f, id, ids[key],
                                                        pinned);
              else
                lr90::net::encode_snapshot_scan_request(f, id, ids[key],
                                                        pinned, kind.op);
            },
            frame, resp, rt_us);
        if (!s.ok() || resp.status != WireStatus::kStaleGeneration) break;
        ++retries;
        pinned = resp.generation;
      }
    }
    Op op = judge(s, resp, variant_of(key, pinned).answers[k], op_class(kind),
                  now_s() - t0);
    op.retries = retries;
    if (tracer != nullptr && op.ok) {
      const Replay r = tracer->replay(frame, variant_of(key, pinned).list.list,
                                      kind, variant_of(key, pinned).answers[k],
                                      i);
      // A cache-answered read does no queue or kernel work on the server,
      // so its round trip less the codec spans is the transport.
      if (retries == 0 &&
          tracer->served_by->serve_stats().result_hits > hits0)
        tracer->transport_us.push_back(rt_us - r.codec_us());
      tracer->handoff_us.push_back(r.handoff_us());
    }
    return op;
  };

  w.make_step = [&](unsigned client, unsigned clients) -> Step {
    auto st = std::make_shared<ClientState>(
        ClientState{lr90::Rng(cfg.seed * 1000 + client + 1),
                    std::vector<std::uint64_t>(kKeys, 1)});
    return [&, st, client, clients](NetClient& c, std::uint64_t i) {
      return op_for(*st, client, clients, c, i, nullptr);
    };
  };
  auto traced_state = std::make_shared<ClientState>(ClientState{
      lr90::Rng(cfg.seed * 1000 + 999), std::vector<std::uint64_t>(kKeys, 1)});
  w.traced_step = [&, traced_state](NetClient& c, std::uint64_t i,
                                    Tracer& t) {
    return op_for(*traced_state, 0, 1, c, i, &t);
  };
  return run_tcp(cfg, w);
}

}  // namespace lr90bench
