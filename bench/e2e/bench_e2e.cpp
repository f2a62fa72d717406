// bench_e2e — runs one workload of the deck pipeline end to end, from a
// generated update stream to a verified k-ECSS, and prints its raw
// measurements as one JSON document on stdout. bench/e2e/run.py builds it,
// runs each workload in its own process and turns the document into named
// metrics; bench/e2e/README.md lists the workloads, the metrics and why each
// exists.
//
//   bench_e2e --workload NAME --seed S --seconds T [--trace PATH]
//
// Every workload runs one untimed warm-up repetition whose output is checked
// exactly, then timed repetitions until T seconds have passed (at least
// kMinReps), each checked by the O(D)-round CONGEST verifiers and against the
// warm-up's digest. With --trace it also runs one traced repetition with obs
// metrics and tracing on, writes its chrome/Perfetto trace to PATH and
// reports per-layer numbers from it; the timed repetitions always run with
// tracing off.
//
// The program is driven only through public calls: GraphSession,
// distributed_2ecss / distributed_kecss over an EngineHub, the net fleet
// (make_distributed_hub over forked run_congest_worker processes), the
// verifiers, kecss_lower_bound and the obs API. It sets no option beyond the
// workload's shape, so a changed library default shows up as a measured
// change, and it never reads Network::PhaseStat::wall_ns: every time comes
// from its own clock or from obs spans.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "congest/distributed_engine.hpp"
#include "congest/engine.hpp"
#include "congest/network.hpp"
#include "cycles/verify.hpp"
#include "ecss/distributed_2ecss.hpp"
#include "ecss/distributed_kecss.hpp"
#include "ecss/lower_bounds.hpp"
#include "graph/bridges.hpp"
#include "graph/edge_connectivity.hpp"
#include "graph/generators.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "serve/session.hpp"
#include "sketch/apply.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace {

using namespace deck;

/// Timed repetitions (or serve epochs) a run makes even when --seconds has
/// already passed, so every median has at least this many samples.
constexpr int kMinReps = 3;
/// serve-churn: timed session set-ups per run, after one untimed one
/// (setup_s is their median).
constexpr int kServeSetups = 25;
/// serve-churn: epochs in the traced repetition.
constexpr int kServeTracedEpochs = 5;
constexpr int kNetWorkers = 2;

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

template <typename F>
std::uint64_t elapsed_ns(F&& body) {
  const std::uint64_t start = clock_ns();
  body();
  return clock_ns() - start;
}

/// Times `body` inside a bench-layer span (inert while tracing is off). The
/// span name's prefix names the layer: e2e.<layer>.<call>.
template <typename F>
std::uint64_t timed(const char* span_name, F&& body) {
  obs::Span span(span_name);
  return elapsed_ns(body);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

double to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

double median(std::vector<std::uint64_t> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? static_cast<double>(xs[m])
                            : (static_cast<double>(xs[m - 1]) + static_cast<double>(xs[m])) / 2;
}

Json samples_json(const std::vector<std::uint64_t>& xs) {
  Json arr = Json::array();
  for (const std::uint64_t x : xs) arr.push(Json(x));
  return arr;
}

/// Order-sensitive FNV-1a over 64-bit words, printed as hex.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kServeChurn, kEcss2Seq, kEcss2Net, kKecss3Seq };

struct Workload {
  const char* name;
  Kind kind;
  int n;
  int k;
  /// Input salt: ecss2-seq and ecss2-net share one, so their inputs (and
  /// therefore their outputs) are identical.
  std::uint64_t family;
};

constexpr Workload kWorkloads[] = {
    {"serve-churn", Kind::kServeChurn, 2048, 2, 1},
    {"ecss2-seq", Kind::kEcss2Seq, 4096, 2, 2},
    {"ecss2-net", Kind::kEcss2Net, 4096, 2, 2},
    {"kecss3-seq", Kind::kKecss3Seq, 1024, 3, 3},
};

/// Every workload runs on one fixed graph instance (and, for the solves, one
/// fixed weighting); --seed generates the update stream that builds it —
/// insert order, churn pairs, serve-churn's whole churn sequence. Sketches
/// are linear, so a solve's certificate and output are the same for every
/// seed. With the graph drawn from the seed instead, the TAP iteration count
/// of ecss2 varies 7-9 and its solve time by about ±25% between seeds — far
/// more than host noise — so a cross-seed spread would measure the inputs,
/// not the program.
Rng instance_rng(const Workload& w) { return Rng(split_seed(0x1257a9ce, w.family)); }

/// Failure accounting: every end-to-end operation (a set-up, a solve
/// repetition, a serve epoch, the final serve check) counts as attempted;
/// an exception or a failed check fails it and ends the run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  template <typename F>
  void operation(F&& body) {
    ++attempted;
    try {
      body();
    } catch (const std::exception& e) {
      fail(e.what());
      throw;
    }
  }

  void fail(const std::string& what) {
    if (failed++ == 0) error = what;
  }
};

/// Named per-layer values of the traced repetition, in report order.
using PerLayer = std::vector<std::pair<std::string, double>>;

/// What a workload run leaves for main() to print.
struct Run {
  Json doc = Json::object();
  bool traced = false;
  Json trace_summary = Json::object();
  PerLayer per_layer;
  int solves = 0;  // solves the congest workers served
};

// ---------------------------------------------------------------------------
// Traced-run decorator: spans around every engine load and execution.
// Sub-Networks inherit the hub, so every CONGEST execution of a solve passes
// through it.

class TimedEngine final : public Engine {
 public:
  explicit TimedEngine(std::unique_ptr<Engine> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  ExecStats execute(VertexProgram& prog) override {
    obs::Span span("e2e.congest.execute");
    const ExecStats stats = inner_->execute(prog);
    span.arg("rounds", stats.rounds);
    span.arg("messages", stats.messages);
    return stats;
  }

 private:
  std::unique_ptr<Engine> inner_;
};

class TimedHub final : public EngineHub {
 public:
  explicit TimedHub(std::shared_ptr<EngineHub> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  std::unique_ptr<Engine> engine_for(const Graph& g) override {
    obs::Span span("e2e.congest.load");
    return std::make_unique<TimedEngine>(inner_->engine_for(g));
  }

 private:
  std::shared_ptr<EngineHub> inner_;
};

// ---------------------------------------------------------------------------
// Tracing and the per-layer summary.

/// Turns obs metrics and tracing on or off together.
void observe(bool on) {
  obs::set_enabled(on);
  obs::set_tracing(on);
}

struct Traced {
  std::vector<obs::TraceEvent> events;
  obs::Snapshot metrics;
};

void begin_trace(std::uint64_t seed) {
  obs::Registry::global().reset();
  obs::TraceSink::global().clear();
  obs::set_trace_id(split_seed(seed, 0x7ace) | 1);
}

Traced end_trace() {
  observe(false);
  return {obs::TraceSink::global().drain(), obs::Registry::global().scrape()};
}

/// The bench layer of a span named e2e.<layer>.<call>; "" for spans the
/// program records itself.
std::string bench_layer(const std::string& name) {
  if (name.rfind("e2e.", 0) != 0) return "";
  const std::size_t dot = name.find('.', 4);
  return name.substr(4, dot == std::string::npos ? std::string::npos : dot - 4);
}

struct SpanTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, std::uint64_t> args;  // summed numeric args
};

/// Totals per span name over this process's events (worker events, merged
/// into the trace by the net engine, carry their worker's pid).
std::map<std::string, SpanTotal> span_totals(const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, SpanTotal> out;
  for (const obs::TraceEvent& ev : events) {
    if (ev.pid != 0) continue;
    SpanTotal& t = out[ev.name];
    ++t.count;
    t.total_ns += ev.dur_ns;
    for (const auto& [name, value] : ev.args) t.args[name] += value;
  }
  return out;
}

struct LayerTime {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// A layer's self time is its bench spans' duration minus the part covered by
/// the nearest descendant span of another bench layer. Spans the program
/// records itself are walked through, never subtracted.
std::map<std::string, LayerTime> layer_times(const std::vector<obs::TraceEvent>& events) {
  std::unordered_map<std::uint64_t, const obs::TraceEvent*> by_id;
  for (const obs::TraceEvent& ev : events) by_id[ev.span_id] = &ev;
  std::unordered_map<std::uint64_t, std::uint64_t> covered;
  for (const obs::TraceEvent& ev : events) {
    const std::string layer = bench_layer(ev.name);
    if (layer.empty()) continue;
    for (auto it = by_id.find(ev.parent_id); it != by_id.end();
         it = by_id.find(it->second->parent_id)) {
      const std::string up = bench_layer(it->second->name);
      if (up.empty()) continue;
      if (up != layer) covered[it->first] += ev.dur_ns;
      break;
    }
  }
  std::map<std::string, LayerTime> out;
  for (const obs::TraceEvent& ev : events) {
    const std::string layer = bench_layer(ev.name);
    if (layer.empty()) continue;
    LayerTime& t = out[layer];
    ++t.spans;
    t.total_ns += ev.dur_ns;
    t.self_ns += ev.dur_ns - std::min(ev.dur_ns, covered[ev.span_id]);
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  require(f != nullptr, "cannot open " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  require(std::fclose(f) == 0 && ok, "cannot write " + path);
}

double hist_sum(const obs::Snapshot& s, const char* name) {
  const obs::Histogram::Snap* h = s.histogram(name);
  return h != nullptr ? static_cast<double>(h->sum) : 0;
}

SessionStats stats_delta(const SessionStats& after, const SessionStats& before) {
  SessionStats d;
  d.updates = after.updates - before.updates;
  d.queries = after.queries - before.queries;
  d.bank_reuses = after.bank_reuses - before.bank_reuses;
  d.bank_replays = after.bank_replays - before.bank_replays;
  d.gutter.flushes = after.gutter.flushes - before.gutter.flushes;
  d.gutter.size_flushes = after.gutter.size_flushes - before.gutter.size_flushes;
  d.gutter.drain_flushes = after.gutter.drain_flushes - before.gutter.drain_flushes;
  d.gutter.flushed_halves = after.gutter.flushed_halves - before.gutter.flushed_halves;
  return d;
}

/// Solver outputs of a traced repetition (all zero for serve-churn).
struct SolveCounts {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::vector<std::pair<std::string, std::uint64_t>> phase_rounds;
  int tap_iterations = 0;
  int num_segments = 0;
  int iterations = 0;
  double weight_ratio = 0;
};

/// Writes the trace to `path` and derives every per-layer value; layers the
/// workload does not exercise read 0. Fleet-side values (net.fleet_spawn_s,
/// net.worker_peak_rss_mb and the worker send wait) are added by main() once
/// the fleet is reaped.
/// `drained_halves` counts the gutter halves flushed by flush()/query()
/// drains rather than by size triggers inside apply().
void summarize_trace(const Traced& tr, const std::string& path, const SessionStats& session,
                     std::uint64_t drained_halves, const std::vector<SparsifyResult>& queries,
                     const SolveCounts& solve, double traced_ns, double untraced_ns, Run& run) {
  write_file(path, obs::chrome_trace_json(tr.events));
  const std::map<std::string, SpanTotal> spans = span_totals(tr.events);
  const auto total = [&](const char* name) -> std::uint64_t {
    const auto it = spans.find(name);
    return it != spans.end() ? it->second.total_ns : 0;
  };
  const auto count = [&](const char* name) -> double {
    const auto it = spans.find(name);
    return it != spans.end() ? static_cast<double>(it->second.count) : 0;
  };
  const auto arg = [&](const char* name, const char* key) -> double {
    const auto it = spans.find(name);
    if (it == spans.end()) return 0;
    const auto a = it->second.args.find(key);
    return a != it->second.args.end() ? static_cast<double>(a->second) : 0;
  };
  const std::map<std::string, LayerTime> layers = layer_times(tr.events);
  Json layers_json = Json::object();
  for (const auto& [name, t] : layers)
    layers_json.set(name, Json::object()
                              .set("spans", Json(t.spans))
                              .set("total_s", to_s(t.total_ns))
                              .set("self_s", to_s(t.self_ns)));
  const auto ecss = layers.find("ecss");

  double cert_edges = 0, copies = 0, rec_rounds = 0, samples = 0, failures = 0, attempts = 0;
  for (const SparsifyResult& q : queries) {
    cert_edges += q.certificate.num_edges();
    copies += q.copies_used;
    rec_rounds += q.stats.rounds;
    samples += static_cast<double>(q.stats.samples);
    failures += static_cast<double>(q.stats.failures);
    attempts += q.attempts;
  }
  const double exec_ns = static_cast<double>(total("e2e.congest.execute"));
  const double exec_rounds = arg("e2e.congest.execute", "rounds");
  const double exec_messages = arg("e2e.congest.execute", "messages");
  const double wire = hist_sum(tr.metrics, "congest.net.round_wire_bytes");
  const auto counter = [&](const char* name) {
    return static_cast<double>(tr.metrics.counter(name));
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  PerLayer& pl = run.per_layer;
  pl = {
      {"serve.apply_s", to_s(total("e2e.serve.apply") + total("e2e.serve.flush"))},
      {"serve.query_s", to_s(total("e2e.serve.query"))},
      {"serve.gutter.flushes", u(session.gutter.flushes)},
      {"serve.gutter.size_flushes", u(session.gutter.size_flushes)},
      {"serve.gutter.drain_flushes", u(session.gutter.drain_flushes)},
      {"serve.gutter.flushed_halves", u(session.gutter.flushed_halves)},
      {"serve.gutter.drained_halves", u(drained_halves)},
      {"serve.bank_reuses", u(session.bank_reuses)},
      {"serve.bank_replays", u(session.bank_replays)},
      {"sketch.recovery_s", to_s(total("recovery.attempt"))},
      {"sketch.certificate_edges", cert_edges},
      {"sketch.copies_used", copies},
      {"sketch.recovery_rounds", rec_rounds},
      {"sketch.samples", samples},
      {"sketch.sample_failures", failures},
      {"sketch.sample_success_ratio", ratio(samples - failures, samples)},
      {"sketch.attempts", attempts},
      {"congest.rounds", u(solve.rounds)},
      {"congest.messages", u(solve.messages)},
      {"congest.executions", count("e2e.congest.execute")},
      {"congest.execute_s", exec_ns / 1e9},
      {"congest.load_s", to_s(total("e2e.congest.load"))},
      {"congest.exec_rounds", exec_rounds},
      {"congest.ns_per_round", ratio(exec_ns, exec_rounds)},
      {"congest.ns_per_message", ratio(exec_ns, exec_messages)},
      {"congest.msgs_per_round", ratio(exec_messages, exec_rounds)},
      {"ecss.solve_s", to_s(total("e2e.ecss.solve"))},
      {"ecss.driver_s", ecss != layers.end() ? to_s(ecss->second.self_ns) : 0},
      {"ecss.tap_iterations", solve.tap_iterations},
      {"ecss.num_segments", solve.num_segments},
      {"ecss.iterations", solve.iterations},
      {"ecss.weight_ratio", solve.weight_ratio},
      {"congest.net.wire_bytes", wire},
      {"congest.net.wire_bytes_per_round", ratio(wire, counter("congest.net.rounds"))},
      {"congest.net.delta_frames", counter("congest.net.delta_frames")},
      {"congest.net.full_frames", counter("congest.net.full_frames")},
      {"congest.net.boundary_messages", counter("congest.net.boundary_messages")},
      {"congest.net.barrier_wait_s", hist_sum(tr.metrics, "congest.net.barrier_wait_ns") / 1e9},
      {"net.tx.bytes", counter("net.tx.bytes")},
      {"net.tx.frames", counter("net.tx.frames")},
      {"net.rx.wait_s", hist_sum(tr.metrics, "net.rx.wait_ns") / 1e9},
      {"obs.trace_overhead_frac", ratio(traced_ns, untraced_ns) - 1},
  };
  for (const auto& [name, rounds] : solve.phase_rounds) {
    std::string clean = name;  // metric names are [A-Za-z0-9_.-]
    for (char& c : clean)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') c = '_';
    pl.emplace_back("congest.phase." + clean + ".rounds", u(rounds));
  }

  run.traced = true;
  run.trace_summary.set("traced_s", traced_ns / 1e9)
      .set("untraced_s", untraced_ns / 1e9)
      .set("events", Json(static_cast<std::uint64_t>(tr.events.size())))
      .set("layers", layers_json);
}

// ---------------------------------------------------------------------------
// ecss2-net's worker fleet.

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t w = ::write(fd, text.data() + off, text.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return;
    off += static_cast<std::size_t>(w);
  }
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return out;
    out.append(buf, static_cast<std::size_t>(r));
  }
}

/// `workers` forked processes, each connected back over TCP loopback and
/// serving run_congest_worker with default options until Shutdown. Must be
/// constructed before the process starts any thread. With worker_metrics,
/// each worker records obs metrics for its whole life and writes the scrape
/// back over a pipe when it exits.
class ForkedFleet {
 public:
  struct Reaped {
    bool clean = true;
    std::map<std::string, double> metrics;  // summed over workers
    long max_rss_kb = 0;
  };

  ForkedFleet(int workers, bool worker_metrics) {
    const std::uint64_t start = clock_ns();
    TcpListener listener;
    for (int w = 0; w < workers; ++w) {
      int fds[2];
      require(::pipe(fds) == 0, "pipe failed");
      const pid_t pid = ::fork();
      require(pid >= 0, "fork failed");
      if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        try {
          if (worker_metrics) obs::set_enabled(true);
          const std::unique_ptr<Transport> t = tcp_connect("127.0.0.1", listener.port());
          run_congest_worker(*t);
          if (worker_metrics) write_all(fds[1], obs::Registry::global().scrape().text());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "congest worker %d: %s\n", w, e.what());
          code = 1;
        }
        ::_exit(code);
      }
      ::close(fds[1]);
      pids_.push_back(pid);
      pipes_.push_back(fds[0]);
    }
    std::vector<Transport*> raw;
    for (int w = 0; w < workers; ++w) {
      links_.push_back(listener.accept());
      raw.push_back(links_.back().get());
    }
    hub_ = make_distributed_hub(raw);
    spawn_ns = clock_ns() - start;
  }

  ~ForkedFleet() {
    try {
      finish();
    } catch (...) {
      // Best effort on the error path: the run has already failed.
    }
  }

  ForkedFleet(const ForkedFleet&) = delete;
  ForkedFleet& operator=(const ForkedFleet&) = delete;

  std::shared_ptr<EngineHub> hub() const { return hub_; }

  /// Shuts the fleet down and waits for every worker. Idempotent.
  Reaped finish() {
    Reaped out;
    if (finished_) return out;
    finished_ = true;
    if (hub_) hub_->shutdown();
    for (std::size_t w = 0; w < pids_.size(); ++w) {
      const std::string text = read_all(pipes_[w]);
      ::close(pipes_[w]);
      for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t eol = std::min(text.find('\n', pos), text.size());
        const std::string line = text.substr(pos, eol - pos);
        const std::size_t sp = line.rfind(' ');
        if (sp != std::string::npos)
          out.metrics[line.substr(0, sp)] += std::strtod(line.c_str() + sp + 1, nullptr);
        pos = eol + 1;
      }
      int status = 0;
      struct rusage ru {};
      if (::wait4(pids_[w], &status, 0, &ru) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0)
        out.clean = false;
      out.max_rss_kb = std::max(out.max_rss_kb, ru.ru_maxrss);
    }
    return out;
  }

  std::uint64_t spawn_ns = 0;

 private:
  std::vector<pid_t> pids_;
  std::vector<int> pipes_;
  std::vector<std::unique_ptr<Transport>> links_;  // outlive the hub
  std::shared_ptr<DistributedEngineHub> hub_;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Solve workloads: ecss2-seq, ecss2-net, kecss3-seq.

struct SolveInput {
  int n = 0;
  int k = 0;
  GraphStream stream{0};
  std::uint64_t weight_seed = 0;
  std::uint64_t verify_seed = 0;
};

/// The workload's fixed instance random_kec(n, k, 2n) as a seeded stream: a
/// shuffled insert stream followed by m transient insert/delete churn pairs.
SolveInput make_solve_input(const Workload& w, std::uint64_t seed) {
  Rng instance = instance_rng(w);
  const Graph g = random_kec(w.n, w.k, 2 * w.n, instance);
  Rng rng(split_seed(seed, w.family));
  SolveInput in;
  in.n = w.n;
  in.k = w.k;
  in.stream = GraphStream::from_graph(g, rng);
  in.stream.churn(g.num_edges(), rng);
  in.weight_seed = instance();
  in.verify_seed = rng();
  return in;
}

/// One stream → certificate → k-ECSS pass; timings in ns.
struct SolveRep {
  std::uint64_t open_ns = 0, apply_ns = 0, flush_ns = 0, query_ns = 0, network_ns = 0,
                solve_ns = 0;
  SparsifyResult query;
  SessionStats session;
  std::uint64_t drained_halves = 0;  // flushed by flush()/query(), not apply()
  Graph cert;  // the certificate with its seeded weights: the solver's input
  std::vector<EdgeId> edges;
  Weight weight = 0;
  SolveCounts counts;

  std::uint64_t total_ns() const {
    return open_ns + apply_ns + flush_ns + query_ns + network_ns + solve_ns;
  }
  std::string digest() const {
    Digest d;
    for (const EdgeId e : edges) d.add(static_cast<std::uint64_t>(e));
    d.add(counts.rounds);
    d.add(counts.messages);
    return d.hex();
  }
};

SolveRep solve_rep(const SolveInput& in, const std::shared_ptr<EngineHub>& hub) {
  SolveRep r;
  std::unique_ptr<GraphSession> session;
  r.open_ns =
      timed("e2e.serve.open", [&] { session = std::make_unique<GraphSession>(in.n, in.k); });
  r.apply_ns = timed("e2e.serve.apply", [&] {
    for (const StreamUpdate& u : in.stream.updates()) session->apply(u);
  });
  const std::uint64_t applied = session->stats().gutter.flushed_halves;
  r.flush_ns = timed("e2e.serve.flush", [&] { session->flush(); });
  r.query_ns = timed("e2e.serve.query", [&] { r.query = session->query(); });
  r.session = session->stats();
  r.drained_halves = r.session.gutter.flushed_halves - applied;
  session.reset();

  Rng wrng(in.weight_seed);
  r.cert = with_weights(r.query.certificate, WeightModel::kUniform, wrng);
  std::unique_ptr<Network> net;
  r.network_ns = elapsed_ns([&] {
    net = std::make_unique<Network>(r.cert, hub);
    net->engine();
  });
  r.solve_ns = timed("e2e.ecss.solve", [&] {
    if (in.k == 2) {
      const Ecss2Result out = distributed_2ecss(*net, TapOptions{});
      r.edges = out.edges;
      r.weight = out.weight;
      r.counts.tap_iterations = out.tap_iterations;
      r.counts.num_segments = out.num_segments;
    } else {
      const KecssResult out = distributed_kecss(*net, in.k, KecssOptions{});
      r.edges = out.edges;
      r.weight = out.weight;
      r.counts.iterations = out.iterations;
    }
    net->end_phase();
  });
  r.counts.rounds = net->rounds();
  r.counts.messages = net->messages();
  for (const Network::PhaseStat& p : net->phases()) {
    auto it = std::find_if(r.counts.phase_rounds.begin(), r.counts.phase_rounds.end(),
                           [&](const auto& e) { return e.first == p.name; });
    if (it == r.counts.phase_rounds.end())
      r.counts.phase_rounds.emplace_back(p.name, p.rounds);
    else
      it->second += p.rounds;
  }
  r.counts.weight_ratio = ratio(static_cast<double>(r.weight),
                                static_cast<double>(kecss_lower_bound(r.cert, in.k)));
  return r;
}

/// Every repetition: the certificate fits k(n-1) edges and the output passes
/// the O(D) verifier. With `exact`, also: the certificate is a subgraph of
/// the streamed graph, and it and the output are exactly k-edge-connected —
/// for k = 2 by bridge finding (linear time; one max-flow per vertex takes
/// ~10 s at n = 4096), otherwise by is_k_edge_connected.
void check_solve(const SolveInput& in, const SolveRep& r, bool exact) {
  require(r.query.certificate.num_edges() <= in.k * (in.n - 1),
          "certificate exceeds k(n-1) edges");
  const Graph out = r.cert.edge_subgraph(r.edges);
  Network vnet(out);
  const VerifyResult v = in.k == 2 ? verify_2_edge_connected(vnet, in.verify_seed)
                                   : verify_3_edge_connected(vnet, in.verify_seed);
  require(v.is_k_connected, "output failed the O(D) verifier");
  if (!exact) return;
  const Graph truth = in.stream.materialize();
  for (const Edge& e : r.cert.edges())
    require(truth.has_edge(e.u, e.v), "certificate edge is not in the streamed graph");
  const auto exactly_kec = [&](const std::vector<char>& mask) {
    return in.k == 2 ? is_two_edge_connected(r.cert, mask)
                     : is_k_edge_connected(r.cert, mask, in.k);
  };
  require(exactly_kec(std::vector<char>(static_cast<std::size_t>(r.cert.num_edges()), 1)),
          "certificate is not k-edge-connected");
  require(exactly_kec(edge_mask(r.cert, r.edges)), "output is not k-edge-connected");
}

void run_solve(const Workload& w, std::uint64_t seed, double seconds, const std::string& trace_path,
               const std::shared_ptr<EngineHub>& hub, Tally& tally, Run& run) {
  const SolveInput in = make_solve_input(w, seed);

  SolveRep warm;
  std::uint64_t check_ns = 0;
  const std::uint64_t warm_start = clock_ns();
  tally.operation([&] {
    warm = solve_rep(in, hub);
    ++run.solves;
    check_ns += elapsed_ns([&] { check_solve(in, warm, /*exact=*/true); });
    if (w.kind == Kind::kEcss2Net) {
      const SolveRep ref = solve_rep(in, EngineHub::sequential());
      require(ref.digest() == warm.digest(), "net engine output differs from the seq engine");
    }
  });
  const std::uint64_t warm_ns = clock_ns() - warm_start;
  const std::string want = warm.digest();

  std::vector<std::uint64_t> setup, apply, flush, query, solve, total;
  const std::uint64_t start = clock_ns();
  while (static_cast<int>(total.size()) < kMinReps || to_s(clock_ns() - start) < seconds) {
    tally.operation([&] {
      const SolveRep r = solve_rep(in, hub);
      ++run.solves;
      check_ns += elapsed_ns([&] { check_solve(in, r, /*exact=*/false); });
      require(r.digest() == want, "repetition output differs from the warm-up's");
      setup.push_back(r.open_ns + r.network_ns);
      apply.push_back(r.apply_ns);
      flush.push_back(r.flush_ns);
      query.push_back(r.query_ns);
      solve.push_back(r.solve_ns);
      total.push_back(r.total_ns());
    });
  }

  Json phases = Json::object();
  for (const auto& [name, rounds] : warm.counts.phase_rounds) phases.set(name, Json(rounds));
  run.doc.set("updates", Json(static_cast<std::uint64_t>(in.stream.size())))
      .set("digest", want)
      .set("warmup_s", to_s(warm_ns))
      .set("check_s", to_s(check_ns))
      .set("samples_ns", Json::object()
                             .set("setup", samples_json(setup))
                             .set("apply", samples_json(apply))
                             .set("flush", samples_json(flush))
                             .set("query", samples_json(query))
                             .set("solve", samples_json(solve))
                             .set("total", samples_json(total)))
      .set("counts", Json::object()
                         .set("certificate_edges", warm.cert.num_edges())
                         .set("output_edges", static_cast<int>(warm.edges.size()))
                         .set("weight", Json(static_cast<std::int64_t>(warm.weight)))
                         .set("weight_ratio", warm.counts.weight_ratio)
                         .set("congest_rounds", Json(warm.counts.rounds))
                         .set("congest_messages", Json(warm.counts.messages))
                         .set("tap_iterations", warm.counts.tap_iterations)
                         .set("num_segments", warm.counts.num_segments)
                         .set("iterations", warm.counts.iterations)
                         .set("phase_rounds", phases));
  if (trace_path.empty()) return;

  SolveRep tr;
  Traced t;
  tally.operation([&] {
    begin_trace(seed);
    observe(true);
    try {
      tr = solve_rep(in, std::make_shared<TimedHub>(hub));
    } catch (...) {
      end_trace();
      throw;
    }
    t = end_trace();
    ++run.solves;
    check_solve(in, tr, /*exact=*/false);
    require(tr.digest() == want, "traced repetition output differs from the warm-up's");
  });
  summarize_trace(t, trace_path, tr.session, tr.drained_halves, {tr.query}, tr.counts,
                  static_cast<double>(tr.total_ns()), median(total), run);
}

// ---------------------------------------------------------------------------
// serve-churn.

/// The serve-churn update generator and the bench's own model of the live
/// graph. Backbone (cycle) edges are never touched, so the graph stays
/// 2-edge-connected after every update.
class ChurnModel {
 public:
  ChurnModel(const Graph& g0, std::uint64_t seed) : n_(g0.num_vertices()), rng_(seed) {
    for (const Edge& e : g0.edges()) {
      live_.insert(key(e.u, e.v));
      if (!backbone(e.u, e.v)) persistent_.push_back(key(e.u, e.v));
    }
  }

  /// 4n updates: n net changes (delete or insert a non-backbone edge) and
  /// 3n/2 transient insert/delete pairs, randomly interleaved.
  std::vector<StreamUpdate> epoch() {
    std::vector<StreamUpdate> out;
    out.reserve(static_cast<std::size_t>(4 * n_));
    std::uint64_t net_left = static_cast<std::uint64_t>(n_);
    std::uint64_t ins_left = static_cast<std::uint64_t>(3 * n_ / 2);
    std::vector<std::uint64_t> open;
    while (net_left + ins_left + open.size() > 0) {
      const std::uint64_t pick = rng_.next_below(net_left + ins_left + open.size());
      if (pick < net_left) {
        --net_left;
        if (!persistent_.empty() && rng_.next_bool(0.5)) {
          out.push_back(erase(take(persistent_)));
        } else {
          persistent_.push_back(absent());
          out.push_back(insert(persistent_.back()));
        }
      } else if (pick < net_left + ins_left) {
        --ins_left;
        open.push_back(absent());
        out.push_back(insert(open.back()));
      } else {
        out.push_back(erase(take(open)));
      }
    }
    return out;
  }

  bool live(VertexId u, VertexId v) const { return live_.count(key(u, v)) != 0; }

 private:
  std::uint64_t key(VertexId u, VertexId v) const {
    return static_cast<std::uint64_t>(std::min(u, v)) * static_cast<std::uint64_t>(n_) +
           static_cast<std::uint64_t>(std::max(u, v));
  }
  bool backbone(VertexId u, VertexId v) const {
    const int d = std::abs(u - v);
    return d == 1 || d == n_ - 1;
  }
  std::uint64_t absent() {
    for (;;) {
      const auto u = static_cast<VertexId>(rng_.next_below(static_cast<std::uint64_t>(n_)));
      const auto v = static_cast<VertexId>(rng_.next_below(static_cast<std::uint64_t>(n_)));
      if (u != v && !live(u, v)) return key(u, v);
    }
  }
  std::uint64_t take(std::vector<std::uint64_t>& from) {
    const auto i = static_cast<std::size_t>(rng_.next_below(from.size()));
    std::swap(from[i], from.back());
    const std::uint64_t k = from.back();
    from.pop_back();
    return k;
  }
  StreamUpdate update(std::uint64_t k, bool insert) const {
    const auto n = static_cast<std::uint64_t>(n_);
    return {static_cast<VertexId>(k / n), static_cast<VertexId>(k % n), insert};
  }
  StreamUpdate insert(std::uint64_t k) {
    live_.insert(k);
    return update(k, true);
  }
  StreamUpdate erase(std::uint64_t k) {
    live_.erase(k);
    return update(k, false);
  }

  int n_;
  Rng rng_;
  std::unordered_set<std::uint64_t> live_;
  std::vector<std::uint64_t> persistent_;  // live non-backbone edges
};

bool same_forests(const SparsifyResult& a, const SparsifyResult& b) {
  if (a.forests.size() != b.forests.size() || a.copies_used != b.copies_used) return false;
  for (std::size_t f = 0; f < a.forests.size(); ++f) {
    if (a.forests[f].size() != b.forests[f].size()) return false;
    for (std::size_t e = 0; e < a.forests[f].size(); ++e)
      if (a.forests[f][e].u != b.forests[f][e].u || a.forests[f][e].v != b.forests[f][e].v)
        return false;
  }
  return true;
}

void run_serve(const Workload& w, std::uint64_t seed, double seconds, const std::string& trace_path,
               Tally& tally, Run& run) {
  const int n = w.n, k = w.k;
  Rng instance = instance_rng(w);
  const Graph g0 = random_kec(n, k, 2 * n, instance);
  Rng rng(split_seed(seed, w.family));
  const GraphStream load = GraphStream::from_graph(g0, rng);
  ChurnModel model(g0, rng());
  const std::uint64_t verify_seed = rng();
  GraphStream history = load;  // every update sent, for the exact checks

  IngestOptions opt;
  opt.mode = IngestMode::kSharded;
  opt.shard.shards = 4;
  opt.recovery.threads = 4;

  // The first set-up of a process takes 2-3 times as long as the rest (fresh
  // pages, one-time initialisation); it is not timed.
  std::vector<std::uint64_t> setup;
  std::unique_ptr<GraphSession> session;
  for (int i = 0; i <= kServeSetups; ++i) {
    tally.operation([&] {
      session.reset();
      const std::uint64_t ns = timed("e2e.serve.open", [&] {
        session = std::make_unique<GraphSession>(n, k, opt);
        session->ingest(load);
        session->flush();
      });
      if (i > 0) setup.push_back(ns);
    });
  }

  // One closed-loop epoch with one client: 4n apply() calls, then query().
  SparsifyResult last;
  std::uint64_t updates = 0, drained = 0;
  const auto epoch = [&](std::uint64_t& apply_ns, std::uint64_t& query_ns) {
    const std::vector<StreamUpdate> ups = model.epoch();
    for (const StreamUpdate& u : ups) {
      if (u.insert)
        history.insert(u.u, u.v);
      else
        history.erase(u.u, u.v);
    }
    apply_ns = timed("e2e.serve.apply", [&] {
      for (const StreamUpdate& u : ups) session->apply(u);
    });
    const std::uint64_t applied = session->stats().gutter.flushed_halves;
    query_ns = timed("e2e.serve.query", [&] { last = session->query(); });
    drained += session->stats().gutter.flushed_halves - applied;
    updates += ups.size();
  };
  // Every query: at most k(n-1) edges, all live, passing the O(D) verifier.
  const auto check = [&](bool exact) {
    require(last.certificate.num_edges() <= k * (n - 1), "certificate exceeds k(n-1) edges");
    for (const Edge& e : last.certificate.edges())
      require(model.live(e.u, e.v), "certificate holds an edge that is not live");
    Network vnet(last.certificate);
    require(verify_2_edge_connected(vnet, verify_seed).is_k_connected,
            "certificate failed the O(D) verifier");
    if (exact)
      require(same_forests(last, ingest(history, k, IngestOptions{})),
              "certificate differs from a one-shot sequential ingest of the stream");
  };

  // The warm-up epoch's certificate is the run's output record: later
  // epochs depend on how many fit in the run.
  std::uint64_t a = 0, q = 0;
  tally.operation([&] {
    epoch(a, q);
    check(/*exact=*/true);
  });
  const Graph warm = last.certificate;

  // The traced epochs come right after the warm-up, so their counts are the
  // same on every run of a seed.
  Traced traced;
  std::vector<SparsifyResult> traced_queries;
  std::uint64_t traced_ns = 0;
  SessionStats before;
  std::uint64_t drained_before = 0;
  if (!trace_path.empty()) {
    before = session->stats();
    drained_before = drained;
    begin_trace(seed);
    for (int e = 0; e < kServeTracedEpochs; ++e) {
      tally.operation([&] {
        observe(true);
        try {
          epoch(a, q);
        } catch (...) {
          observe(false);
          throw;
        }
        observe(false);
        traced_ns += a + q;
        traced_queries.push_back(last);
        check(/*exact=*/false);
      });
    }
    traced = end_trace();
  }
  const SessionStats traced_stats = trace_path.empty() ? before : session->stats();
  const std::uint64_t traced_drained = drained - drained_before;

  std::vector<std::uint64_t> apply, query, total;
  const std::uint64_t start = clock_ns();
  while (static_cast<int>(total.size()) < kMinReps || to_s(clock_ns() - start) < seconds) {
    tally.operation([&] {
      epoch(a, q);
      check(/*exact=*/false);
      apply.push_back(a);
      query.push_back(q);
      total.push_back(a + q);
    });
  }

  // The final reference ingests the stream's net graph, one insertion per
  // live edge: sketches are linear, so it builds the bank the whole history
  // builds, and the check costs the same however many epochs the run made.
  // (The warm-up check above ingests the history itself.)
  const SessionStats stats = session->stats();
  session.reset();  // frees the live bank before the reference ingest
  tally.operation([&] {
    const GraphStream net = GraphStream::from_graph(history.materialize());
    require(same_forests(last, ingest(net, k, IngestOptions{})),
            "final certificate differs from a one-shot sequential ingest of the stream");
  });

  Digest d;
  for (const Edge& e : warm.edges()) {
    d.add(static_cast<std::uint64_t>(e.u));
    d.add(static_cast<std::uint64_t>(e.v));
  }
  run.doc.set("updates_per_epoch", 4 * n)
      .set("epochs", static_cast<int>(total.size()))
      .set("digest", d.hex())
      .set("samples_ns", Json::object()
                             .set("setup", samples_json(setup))
                             .set("apply", samples_json(apply))
                             .set("query", samples_json(query))
                             .set("total", samples_json(total)))
      .set("counts", Json::object()
                         .set("updates", Json(updates))
                         .set("certificate_edges", warm.num_edges())
                         .set("weight_ratio",
                              ratio(static_cast<double>(warm.total_weight()),
                                    static_cast<double>(kecss_lower_bound(warm, k))))
                         .set("bank_reuses", Json(stats.bank_reuses))
                         .set("bank_replays", Json(stats.bank_replays))
                         .set("gutter_size_flushes", Json(stats.gutter.size_flushes))
                         .set("gutter_drain_flushes", Json(stats.gutter.drain_flushes)));
  if (!trace_path.empty())
    summarize_trace(traced, trace_path, stats_delta(traced_stats, before), traced_drained,
                    traced_queries, {}, static_cast<double>(traced_ns) / kServeTracedEpochs,
                    median(total), run);
}

// ---------------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) a.workload = &w;
      if (a.workload == nullptr) return false;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      a.trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && a.workload != nullptr;
}

long peak_rss_kb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload {serve-churn,ecss2-seq,ecss2-net,kecss3-seq} "
                 "[--seed S] [--seconds T] [--trace PATH]\n",
                 argv[0]);
    return 2;
  }
  const Workload& w = *args.workload;
  Tally tally;
  Run run;
  std::unique_ptr<ForkedFleet> fleet;
  try {
    // The fleet forks first: no thread may exist at fork time.
    if (w.kind == Kind::kEcss2Net)
      tally.operation([&] {
        fleet = std::make_unique<ForkedFleet>(kNetWorkers, !args.trace_path.empty());
      });
    if (w.kind == Kind::kServeChurn)
      run_serve(w, args.seed, args.seconds, args.trace_path, tally, run);
    else
      run_solve(w, args.seed, args.seconds, args.trace_path,
                fleet ? fleet->hub() : EngineHub::sequential(), tally, run);
  } catch (const std::exception& e) {
    if (tally.failed == 0) tally.fail(e.what());
  }

  // Fleet-side numbers, zero on workloads without a fleet. The worker send
  // wait is summed over both workers and averaged over the solves they served
  // (every solve of a run is the same work). The worker recv wait is not
  // reported: a worker also blocks on recv between solves, while the
  // coordinator ingests and checks, so it cannot be attributed to a solve.
  ForkedFleet::Reaped reaped;
  if (fleet) {
    try {
      reaped = fleet->finish();
      if (!reaped.clean && tally.failed == 0) tally.fail("a congest worker exited uncleanly");
    } catch (const std::exception& e) {
      if (tally.failed == 0) tally.fail(e.what());
    }
    run.doc.set("fleet_spawn_s", to_s(fleet->spawn_ns))
        .set("worker_peak_rss_kb", Json(static_cast<std::int64_t>(reaped.max_rss_kb)));
  }
  if (run.traced) {
    const auto per_solve = [&](const char* name) {
      const auto it = reaped.metrics.find(name);
      return it != reaped.metrics.end() ? ratio(it->second / 1e9, run.solves) : 0;
    };
    run.per_layer.emplace_back("congest.net.send_thread_wait_s",
                               per_solve("congest.net.send_thread_wait_ns_sum"));
    run.per_layer.emplace_back("net.fleet_spawn_s", fleet ? to_s(fleet->spawn_ns) : 0);
    run.per_layer.emplace_back("net.worker_peak_rss_mb",
                               static_cast<double>(reaped.max_rss_kb) / 1024);
    Json pl = Json::object();
    for (const auto& [name, value] : run.per_layer) pl.set(name, value);
    run.doc.set("traced", run.trace_summary.set("per_layer", pl));
  }

  run.doc.set("workload", w.name)
      .set("seed", Json(args.seed))
      .set("n", w.n)
      .set("k", w.k)
      .set("build", Json::object()
                        .set("simd_apply_kernel", simd_apply_kernel())
                        .set("compiler", __VERSION__)
                        .set("build_type", DECK_E2E_BUILD_TYPE))
      .set("peak_rss_kb", Json(static_cast<std::int64_t>(peak_rss_kb())))
      .set("attempted", Json(tally.attempted))
      .set("failed", Json(tally.failed))
      .set("error", tally.error);
  std::printf("%s\n", run.doc.dump().c_str());
  return tally.failed == 0 ? 0 : 1;
}
