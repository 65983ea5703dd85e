// serve-tcp: an in-process BfsServer on loopback under 4 client
// connections driven in lockstep from one thread (one query on each, then
// all four answers, then the next round), roots drawn from a fixed seeded
// pool whose reference trees are computed once. The path measured is
// admission -> micro-batcher -> MS-64 wave -> response over the wire.
//
// Lockstep, not four free-running clients: free-running clients drift
// between one group of four and two groups of two, and the batcher's
// occupancy (2.0 vs 3.6 queries per wave) moved a server's median round
// trip between ~30 and ~18 ms for its whole life.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "graph/parallel_builder.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace pb {

namespace {

using namespace fastbfs::serve;

constexpr unsigned kClients = 4;        // connections <= nproc, one thread
constexpr unsigned kRootPool = 256;
constexpr unsigned kWarmupRounds = 16;  // lockstep rounds per instance
constexpr unsigned kTreeEvery = 16;     // ~1 in 16 queries asks for its tree
constexpr unsigned kEngineThreads = 2;
constexpr unsigned kInstances = 10;     // servers per run, in turn
constexpr double kJobQueries = 64;      // queries per job_s / cpu_s

/// Blocking client: one connection, one outstanding query.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      throw std::runtime_error("cannot connect to the server");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int fd() const { return fd_; }

  /// Sends `q`; false on a broken connection.
  bool send(const QueryRequest& q) {
    wbuf_.clear();
    encode_query(wbuf_, q);
    for (std::size_t off = 0; off < wbuf_.size();) {
      const ssize_t n = ::send(fd_, wbuf_.data() + off, wbuf_.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One blocking read, then decodes the response if it is whole; `done`
  /// tells whether it was. False on a broken connection or an
  /// undecodable response.
  bool receive(QueryResponse& resp, std::vector<std::uint64_t>& tree,
               bool& done) {
    if (rbuf_.size() - used_ < 65536) rbuf_.resize(used_ + 65536);
    const ssize_t n = ::recv(fd_, rbuf_.data() + used_, rbuf_.size() - used_, 0);
    if (n <= 0) return false;
    used_ += static_cast<std::size_t>(n);
    FrameView f;
    done = try_frame(rbuf_.data(), used_, kMaxResponsePayload, f) ==
           fastbfs::serve::DecodeError::kNone;
    if (!done) return true;
    const bool ok = decode_response(f.payload, f.payload_len, resp, &tree) ==
                    fastbfs::serve::DecodeError::kNone;
    std::memmove(rbuf_.data(), rbuf_.data() + f.frame_len, used_ - f.frame_len);
    used_ -= f.frame_len;
    return ok;
  }

  /// Sends `q` and waits for its response.
  bool query(const QueryRequest& q, QueryResponse& resp,
             std::vector<std::uint64_t>& tree) {
    bool done = false;
    if (!send(q)) return false;
    while (!done) {
      if (!receive(resp, tree, done)) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> wbuf_, rbuf_;
  std::size_t used_ = 0;
};

struct Answer {
  std::uint64_t id = 0;
  std::uint32_t pool_index = 0;
  double rtt = 0;
  QueryResponse resp;
  std::vector<std::uint64_t> tree;  // only for tree queries
};

/// Histogram/counter totals at one instant, or summed deltas over windows.
struct ServeSnapshot {
  struct Hist {
    double sum = 0, count = 0;
  };
  Hist queue_wait, batch_wait, run, respond, latency, occupancy;
  double waves = 0;

  static ServeSnapshot take() {
    auto& reg = fastbfs::obs::metrics();
    const auto h = [&](const char* name) {
      const fastbfs::obs::Histogram* x = reg.histogram(name);
      return Hist{static_cast<double>(x->sum()), static_cast<double>(x->count())};
    };
    ServeSnapshot s;
    s.queue_wait = h("fastbfs_serve_queue_wait_ns");
    s.batch_wait = h("fastbfs_serve_batch_wait_ns");
    s.run = h("fastbfs_serve_run_ns");
    s.respond = h("fastbfs_serve_respond_ns");
    s.latency = h("fastbfs_serve_latency_ns");
    s.occupancy = h("fastbfs_serve_wave_occupancy");
    s.waves = reg.counter("fastbfs_serve_waves_total")->value();
    return s;
  }

  /// Adds the change from `a` to `b` to this running total.
  void add(const ServeSnapshot& a, const ServeSnapshot& b) {
    const auto acc = [](Hist& t, const Hist& x, const Hist& y) {
      t.sum += y.sum - x.sum;
      t.count += y.count - x.count;
    };
    acc(queue_wait, a.queue_wait, b.queue_wait);
    acc(batch_wait, a.batch_wait, b.batch_wait);
    acc(run, a.run, b.run);
    acc(respond, a.respond, b.respond);
    acc(latency, a.latency, b.latency);
    acc(occupancy, a.occupancy, b.occupancy);
    waves += b.waves - a.waves;
  }
};

}  // namespace

void run_serve_workload(const Args& args, Report& report) {
  Input in = rmat_input(16, 16, args.seed, args.data_dir);
  const RefGraph ref = ref_graph(in);
  const std::vector<fastbfs::vid_t> pool = pick_roots(ref, kRootPool, args.seed);
  const std::vector<RefTree> refs = ref_bfs_all(ref, pool, kClients);

  ServerConfig cfg;
  cfg.service.engine.n_threads = kEngineThreads;
  cfg.service.n_dispatchers = 1;
  SteadyClock clock;

  const double t0 = now_s();
  fastbfs::CsrGraph csr;
  {
    Scope s("graph.build_csr_parallel");
    csr = fastbfs::build_csr_parallel(in.edges, in.n, {}, 4);
  }
  const double build_s = now_s() - t0;
  in.edges = {};

  // Per-connection seeded streams of roots and tree requests: a seed
  // fixes the query sequence.
  std::vector<std::uint64_t> streams(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    streams[c] = args.seed * 0x9e3779b97f4a7c15ull + c + 1;
  }
  const auto next = [&streams](unsigned c) {
    std::uint64_t& s = streams[c];
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  };
  std::vector<std::vector<Answer>> answers(kClients);
  std::vector<Answer> cold;  // each instance's first query
  std::uint64_t cold_stream = args.seed * 0x9e3779b97f4a7c15ull;
  std::vector<double> rtt_ms, first_ms, add_graph_s;
  double window_edges = 0;
  double setup_s = 0, window_total = 0, cpu_total = 0, wire_lat_ms = 0;
  ServeSnapshot delta;
  fastbfs::MsWaveStats last_wave;
  double workspace_mib = 0, ms_workspace_mib = 0;
  bool have_ms = false;

  // kInstances servers in turn, each serving seconds/kInstances, so a run
  // samples several placements of the servers' threads and several cold
  // first queries.
  for (unsigned inst = 0; inst < kInstances; ++inst) {
    const double s0 = now_s();
    auto server = std::make_unique<BfsServer>(cfg, clock);
    {
      Scope s("serve.add_graph");
      server->add_graph(csr);
    }
    add_graph_s.push_back(now_s() - s0);
    {
      Scope s("serve.start");
      server->start();
    }
    // The process's one cold set-up: the first instance, with the build.
    if (inst == 0) setup_s = build_s + (now_s() - s0);

    // The instance's cold first query, alone on its own connection.
    {
      Client conn(server->port());
      cold_stream = cold_stream * 6364136223846793005ull + 1442695040888963407ull;
      Answer a;
      a.pool_index = static_cast<std::uint32_t>((cold_stream >> 33) % kRootPool);
      QueryRequest req;
      req.id = a.id = (std::uint64_t{kClients} << 32) | inst;
      req.root = pool[a.pool_index];
      const double q0 = now_s();
      {
        Scope sp("client.round_trip.cold", req.id);
        if (!conn.query(req, a.resp, a.tree)) {
          throw std::runtime_error("the cold query's connection failed");
        }
      }
      a.rtt = now_s() - q0;
      first_ms.push_back(a.rtt * 1e3);
      cold.push_back(std::move(a));
    }

    // Lockstep rounds from this thread: one query on each connection,
    // then every answer before the next round. kWarmupRounds unmeasured
    // rounds first, then whole rounds until the window closes.
    std::vector<std::unique_ptr<Client>> conns;
    for (unsigned c = 0; c < kClients; ++c) {
      conns.push_back(std::make_unique<Client>(server->port()));
    }
    std::vector<pollfd> pfds(kClients);
    const auto round = [&] {
      std::vector<double> sent(kClients);
      std::vector<Answer*> out(kClients);
      for (unsigned c = 0; c < kClients; ++c) {
        std::vector<Answer>& mine = answers[c];
        mine.emplace_back();
        Answer& a = mine.back();
        a.pool_index = static_cast<std::uint32_t>(next(c) % kRootPool);
        QueryRequest req;
        req.id = a.id = (std::uint64_t{c} << 32) | (mine.size() - 1);
        req.root = pool[a.pool_index];
        req.want_tree = next(c) % kTreeEvery == 0;
        sent[c] = now_s();
        if (!conns[c]->send(req)) throw std::runtime_error("a query could not be sent");
      }
      for (unsigned c = 0; c < kClients; ++c) out[c] = &answers[c].back();
      Scope sp("client.round");
      for (unsigned pending = kClients; pending > 0;) {
        nfds_t n = 0;
        for (unsigned c = 0; c < kClients; ++c) {
          if (out[c] != nullptr) pfds[n++] = {conns[c]->fd(), POLLIN, 0};
        }
        if (::poll(pfds.data(), n, -1) < 0) throw std::runtime_error("poll failed");
        for (unsigned c = 0, k = 0; c < kClients; ++c) {
          if (out[c] == nullptr) continue;
          if ((pfds[k++].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          bool done = false;
          if (!conns[c]->receive(out[c]->resp, out[c]->tree, done)) {
            throw std::runtime_error("a client connection failed");
          }
          if (!done) continue;
          out[c]->rtt = now_s() - sent[c];
          out[c] = nullptr;
          --pending;
        }
      }
    };
    for (unsigned r = 0; r < kWarmupRounds; ++r) round();
    std::vector<std::size_t> warm(kClients);
    for (unsigned c = 0; c < kClients; ++c) warm[c] = answers[c].size();
    const double window_len = args.seconds / kInstances;
    const ServeSnapshot before = ServeSnapshot::take();
    const double cpu0 = cpu_s();
    const double window_start = now_s();
    do {
      round();
    } while (now_s() - window_start < window_len);
    window_total += now_s() - window_start;
    cpu_total += cpu_s() - cpu0;
    const ServeSnapshot after = ServeSnapshot::take();
    delta.add(before, after);
    conns.clear();

    // Counters of the runner the dispatcher used (it is idle now).
    const fastbfs::BfsRunner& runner = server->service().runner(0, 0);
    workspace_mib = static_cast<double>(runner.workspace_bytes()) / (1 << 20);
    if (const fastbfs::MsBfs* ms = runner.ms_engine(); ms != nullptr) {
      have_ms = true;
      last_wave = ms->last_wave_stats();
      ms_workspace_mib = static_cast<double>(ms->workspace_bytes()) / (1 << 20);
    }
    {
      Scope s("serve.stop");
      server->stop();
    }
    for (unsigned c = 0; c < kClients; ++c) {
      for (std::size_t i = warm[c]; i < answers[c].size(); ++i) {
        rtt_ms.push_back(answers[c][i].rtt * 1e3);
        window_edges += static_cast<double>(refs[answers[c][i].pool_index].edges);
      }
    }
  }
  wire_lat_ms = delta.latency.count > 0 ? delta.latency.sum / delta.latency.count / 1e6 : 0;

  report.op("build_csr_parallel",
            check_csr(ref, csr.offsets().data(), csr.targets().data(),
                      csr.n_edges()));
  {
    Scope s("check.responses");
    std::vector<const Answer*> all;
    for (const Answer& a : cold) all.push_back(&a);
    for (const auto& mine : answers) {
      for (const Answer& a : mine) all.push_back(&a);
    }
    std::vector<std::string> errors(all.size());
    parallel_for(all.size(), kClients, [&](std::size_t k) {
      const Answer& a = *all[k];
      const RefTree& want = refs[a.pool_index];
      if (a.resp.status != Status::kOk) {
        errors[k] = std::string("status ") + status_name(a.resp.status);
      } else if (a.resp.id != a.id || a.resp.root != want.root) {
        errors[k] = "response for another query";
      } else if (a.resp.has_tree) {
        errors[k] = check_tree(ref, want, a.tree.data(), a.tree.size(),
                               a.resp.vertices_visited, a.resp.edges_traversed,
                               a.resp.depth_reached);
      } else {
        errors[k] = check_summary(want, a.resp.vertices_visited,
                                  a.resp.edges_traversed, a.resp.depth_reached);
      }
    });
    for (const std::string& e : errors) report.op("served query", e);
  }

  const double completed = static_cast<double>(rtt_ms.size());
  report.e2e("setup_s", setup_s, "s");
  report.e2e("first_query_ms", median(first_ms), "ms");
  report.e2e("query_ms", quantile(rtt_ms, 0.5), "ms");
  // Served traffic: undirected edges of every answered query, each counted
  // once, per second of the closed loop.
  report.e2e("mteps", window_edges / 2.0 / window_total / 1e6, "MTEPS");
  // A job is 64 queries answered to 4 closed-loop clients.
  report.e2e("job_s", kJobQueries * window_total / completed, "s");
  report.e2e("cpu_s", cpu_total / completed * kJobQueries, "s");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");

  const auto mean_ms = [](const ServeSnapshot::Hist& h) {
    return h.count > 0 ? h.sum / h.count / 1e6 : 0.0;
  };
  report.layer("graph.build_csr_s", build_s, "s");
  report.layer("core.runner_ctor_s", median(add_graph_s), "s");
  report.layer("core.workspace_mib", workspace_mib, "MiB");
  report.layer("serve.queue_wait_ms", mean_ms(delta.queue_wait), "ms");
  report.layer("serve.batch_wait_ms", mean_ms(delta.batch_wait), "ms");
  report.layer("serve.run_ms", mean_ms(delta.run), "ms");
  report.layer("serve.respond_ms", mean_ms(delta.respond), "ms");
  report.layer("serve.wire_ms", mean(rtt_ms) - wire_lat_ms, "ms");
  report.layer("serve.occupancy",
               delta.occupancy.count > 0 ? delta.occupancy.sum / delta.occupancy.count : 0,
               "queries");
  report.layer("serve.waves", delta.waves / completed * 1000.0, "per_1000_queries");
  if (have_ms) {
    report.layer("ms.levels", last_wave.levels, "count");
    report.layer("ms.edges_scanned", static_cast<double>(last_wave.edges_scanned), "count");
    report.layer("ms.records_binned", static_cast<double>(last_wave.records_binned), "count");
    report.layer("ms.workspace_mib", ms_workspace_mib, "MiB");
  }
}

}  // namespace pb
