// isql_bench: one run of one workload of the I-SQL session benchmark.
//
//   isql_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --store-dir <dir> --kernel <ref_kernel> --trace-out <file>
//
// Prints progress lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. README.md
// describes the workloads and metrics; run.py builds and drives it.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "isql/session.h"
#include "layers.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace isqlbench {
namespace {

namespace mb = maybms;
namespace fs = std::filesystem;

// The reference kernel's nominal time: one copy (embedded workloads)
// and three concurrent copies (the server's three clients). A timing over
// this is the host's slowdown. Rescaled time is raw time over the median
// slowdown of the run's timings; the set-up's, over the slowdown just
// before it.
constexpr double kNominalOneCopyMs = 3.2;
constexpr double kNominalThreeCopiesMs = 4.0;
// Server workload: the writer's pause after each statement, the length
// of one measured epoch between reference-kernel timings, and the
// requests per template of the idle round-trip measurement.
constexpr int kThinkMs = 250;
constexpr int kEpochMs = 1000;
constexpr int kIdleReps = 50;
// The server run stops with an error once its stores pass this size.
constexpr uint64_t kMaxStoreMb = 2048;
// Traced server run: rounds replayed on the mirror session.
constexpr int kMirrorRounds = 5;
// The combiner pass enumerates at most this many per-world answers.
const double kCombineMaxLog10 = std::log10(1 << 19);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string store_dir;
  std::string kernel;
  std::string trace_out;
};

// The reference kernel's pid and pipe, so that Die() can stop it too.
pid_t kernel_pid = -1;
int kernel_stdin = -1;

/// Stops the reference kernel (EOF ends it) and waits for it to exit.
void StopKernel() {
  if (kernel_pid < 0) return;
  close(kernel_stdin);
  int status = 0;
  waitpid(kernel_pid, &status, 0);
  kernel_pid = -1;
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "isql_bench: %s\n", why.c_str());
  StopKernel();
  std::exit(1);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--store-dir") a->store_dir = v;
    else if (k == "--kernel") a->kernel = v;
    else if (k == "--trace-out") a->trace_out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->store_dir.empty() &&
         !a->kernel.empty() && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

/// The reference kernel's process (ref_kernel.cc), driven over pipes.
/// One per run; `copies` concurrent copies per timing, whose nominal time
/// is `nominal_ms`.
class RefKernel {
 public:
  RefKernel(const std::string& path, int copies, double nominal_ms)
      : request_(static_cast<char>('0' + copies)), nominal_ms_(nominal_ms) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) Die("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    posix_spawn_file_actions_addclose(&actions, to_child[1]);
    posix_spawn_file_actions_addclose(&actions, from_child[0]);
    char* argv[] = {const_cast<char*>(path.c_str()), nullptr};
    pid_t pid = -1;
    int rc = posix_spawn(&pid, path.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    from_ = fdopen(from_child[0], "r");
    if (rc != 0) {
      close(to_child[1]);
      Die("cannot start the reference kernel " + path);
    }
    kernel_pid = pid;
    kernel_stdin = to_child[1];
  }
  ~RefKernel() {
    StopKernel();
    std::fclose(from_);
  }
  RefKernel(const RefKernel&) = delete;
  RefKernel& operator=(const RefKernel&) = delete;

  /// The host's slowdown now: one timing (the median of three kernel
  /// runs) over the nominal time.
  double Slowdown() {
    long long ns = 0, check = 0;
    if (write(kernel_stdin, &request_, 1) != 1 ||
        std::fscanf(from_, "%lld %lld", &ns, &check) != 2) {
      Die("reference kernel stopped answering");
    }
    return static_cast<double>(ns) / 1e6 / nominal_ms_;
  }

 private:
  char request_;
  double nominal_ms_;
  FILE* from_ = nullptr;
};

/// What one measured phase produced. Times in ms.
struct Phase {
  std::vector<double> reads, writes;  // per client round
  double busy_ms = 0;                 // wall time of the measured work
  uint64_t statements = 0;            // completed within busy_ms
  std::vector<double> slowdowns;      // the kernel's, between rounds
  std::vector<double> read_latencies_ms;  // server: per request
};

/// The set-up's time and the host's slowdown just before it.
struct Setup {
  double ms = 0;
  double slowdown = 1;
};

/// Times the host before a set-up: the median of three timings, after a
/// warm-up timing that pays for the kernel's page faults. (Timings just
/// after a server's set-up read up to twice the others.)
double SlowdownBeforeSetup(RefKernel* kernel) {
  kernel->Slowdown();
  return Median({kernel->Slowdown(), kernel->Slowdown(), kernel->Slowdown()});
}

struct EndToEnd {
  double setup_s = 0, read_ms = 0, write_ms = 0, stmts_per_s = 0;
};

/// The phase's metrics, raw or rescaled: the set-up by its own slowdown,
/// the rest by the phase's median slowdown.
EndToEnd Summarize(const Phase& p, const Setup& setup, bool scaled) {
  const double slowdown = scaled ? Median(p.slowdowns) : 1.0;
  EndToEnd e;
  e.setup_s = setup.ms / 1e3 / (scaled ? setup.slowdown : 1.0);
  e.read_ms = Median(p.reads) / slowdown;
  e.write_ms = Median(p.writes) / slowdown;
  e.stmts_per_s = p.busy_ms > 0
                      ? static_cast<double>(p.statements) / (p.busy_ms / 1e3) * slowdown
                      : 0;
  return e;
}

void PrintEndToEnd(const char* label, const EndToEnd& e) {
  std::printf("%s: setup_s=%.4f read_ms=%.4f write_ms=%.4f stmts_per_s=%.2f\n",
              label, e.setup_s, e.read_ms, e.write_ms, e.stmts_per_s);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(const Verdict& v, uint64_t attempted,
                 const std::vector<Metric>& metrics) {
  if (!v.first_problem().empty()) {
    std::printf("first problem: %s\n", v.first_problem().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              v.correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(v.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e) {
  return {{"setup_s", e.setup_s, "s"},
          {"read_ms", e.read_ms, "ms"},
          {"write_ms", e.write_ms, "ms"},
          {"stmts_per_s", e.stmts_per_s, "1/s"},
          {"peak_rss_mb", PeakRssMb(), "MiB"}};
}

std::vector<Metric> LayerMetrics(const LayerStats& s) {
  return {
      {"sql.parse_us", Mean(s.parse_us), "us"},
      {"isql.read_ms", Median(s.read_ms), "ms"},
      {"isql.write_ms", Median(s.write_ms), "ms"},
      {"isql.format_us", Mean(s.format_us), "us"},
      {"worlds.evaluate_ms", Median(s.evaluate_ms), "ms"},
      {"worlds.closed_form_ms", Median(s.closed_form_ms), "ms"},
      {"worlds.enumerate_ms", Median(s.enumerate_ms), "ms"},
      {"worlds.combine_ms", s.combine_ms, "ms"},
      {"worlds.combine_feeds", s.combine_feeds, "count"},
      {"worlds.clone_ms", Median(s.clone_ms), "ms"},
      {"worlds.log10_worlds", s.shape.log10_worlds, "log10"},
      {"worlds.components", static_cast<double>(s.shape.components), "count"},
      {"worlds.largest_component", static_cast<double>(s.shape.largest), "count"},
      {"engine.select_per_world_us", Mean(s.select_per_world_us), "us"},
      {"engine.dml_per_world_us", Mean(s.dml_per_world_us), "us"},
      {"storage.to_snapshot_ms", Mean(s.to_snapshot_ms), "ms"},
      {"storage.commit_ms", Mean(s.commit_ms), "ms"},
      {"storage.load_ms", Mean(s.load_ms), "ms"},
      {"storage.from_snapshot_ms", Mean(s.from_snapshot_ms), "ms"},
      {"storage.bytes_per_commit", Mean(s.bytes_per_commit), "B"},
      {"storage.pool_hits", Mean(s.pool_hits), "count"},
      {"storage.pool_misses", Mean(s.pool_misses), "count"},
      {"storage.evictions", Mean(s.evictions), "count"},
      {"storage.flushes", Mean(s.flushes), "count"},
      {"server.roundtrip_us", Mean(s.roundtrip_us), "us"},
      {"server.execute_us", Mean(s.execute_us), "us"},
  };
}

/// The traced run's own end-to-end numbers beside the untraced phase's,
/// as the workload reports them, and the difference: the tracing overhead.
void PrintOverhead(const EndToEnd& untraced, const EndToEnd& traced) {
  PrintEndToEnd("untraced", untraced);
  PrintEndToEnd("traced", traced);
  auto pct = [](double t, double u) { return u > 0 ? 100.0 * (t - u) / u : 0.0; };
  std::printf("tracing overhead: read_ms %+.1f%% write_ms %+.1f%% stmts_per_s %+.1f%%\n",
              pct(traced.read_ms, untraced.read_ms),
              pct(traced.write_ms, untraced.write_ms),
              pct(traced.stmts_per_s, untraced.stmts_per_s));
}

std::string CheckShape(const Shape& want, const Shape& got) {
  char buf[256];
  if (std::fabs(want.log10_worlds - got.log10_worlds) >
          1e-9 * std::max(1.0, want.log10_worlds) ||
      want.components != got.components || want.largest != got.largest) {
    std::snprintf(buf, sizeof(buf),
                  "world-set shape drifted: log10 worlds %.6f components %llu "
                  "largest %llu (expected %.6f, %llu, %llu)",
                  got.log10_worlds, static_cast<unsigned long long>(got.components),
                  static_cast<unsigned long long>(got.largest), want.log10_worlds,
                  static_cast<unsigned long long>(want.components),
                  static_cast<unsigned long long>(want.largest));
    return buf;
  }
  return "";
}

/// Round invariants of an embedded session: the R digest and the
/// world-set shape equal the model's at the start of every round.
void CheckInvariants(mb::isql::Session* session, const Template& digest,
                     const Shape& shape, Verdict* verdict) {
  std::string drift = CheckShape(shape, MeasureShape(session->world_set()));
  if (!drift.empty()) verdict->Wrong(drift);
  auto r = session->Execute(digest.sql);
  if (!r.ok()) return verdict->Wrong("R digest failed: " + r.status().ToString());
  std::string wrong = digest.check(FromResult(*r));
  if (!wrong.empty()) verdict->Wrong("R digest: " + wrong);
}

int64_t ElapsedNs(int64_t since) { return NowNs() - since; }

// ---------------------------------------------------------------------------
// Embedded sessions: wsd_session, explicit_session.
// ---------------------------------------------------------------------------

int RunSession(const Args& args, const WorkloadSpec& spec) {
  Verdict verdict;
  RefKernel kernel(args.kernel, 1, kNominalOneCopyMs);
  const Inputs in = MakeInputs(spec, args.seed);
  const std::vector<std::string> load = LoadStatements(in);
  mb::isql::SessionOptions options;
  options.engine = spec.engine;
  options.storage = mb::isql::StorageMode::kMemory;
  options.threads = kThreads;
  // Set-up: from an empty session to the first measured round. The
  // inputs and their SQL are the client's, made before the clock starts.
  Setup setup;
  setup.slowdown = SlowdownBeforeSetup(&kernel);
  const int64_t setup_start = NowNs();
  mb::isql::Session session(options);
  for (const std::string& sql : load) {
    auto r = session.Execute(sql);
    if (!r.ok()) Die("setup: " + r.status().ToString());
  }
  setup.ms = static_cast<double>(ElapsedNs(setup_start)) / 1e6;

  const std::vector<Template> round = SessionRound(spec, in);
  const Template digest = DigestRead(in, /*admit_inserted=*/false);
  const Shape shape = ExpectedShape(spec, in);
  uint64_t attempted = 0;

  auto run = [&](double seconds, Tracer* tracer, LayerStats* stats) {
    Phase p;
    p.slowdowns.push_back(kernel.Slowdown());
    const int64_t begin = NowNs();
    while (static_cast<double>(ElapsedNs(begin)) / 1e9 < seconds) {
      CheckInvariants(&session, digest, shape, &verdict);
      double read = 0, write = 0;
      if (stats != nullptr) {
        TracedRound(&session, round, tracer, nullptr, stats, &verdict);
        read = stats->read_ms.back();
        write = stats->write_ms.back();
      } else {
        for (const Template& t : round) {
          ScopedSpan timer(nullptr, "");
          auto r = session.Execute(t.sql);
          (t.op == Op::kRead ? read : write) += timer.Close();
          if (!r.ok()) {
            verdict.Failed(t.name + ": " + r.status().ToString());
            continue;
          }
          if (t.op == Op::kRead) {
            std::string wrong = t.check(FromResult(*r));
            if (!wrong.empty()) verdict.Wrong(t.name + ": " + wrong);
          }
        }
      }
      attempted += round.size();
      p.statements += round.size();
      p.reads.push_back(read);
      p.writes.push_back(write);
      p.busy_ms += read + write;
      p.slowdowns.push_back(kernel.Slowdown());
    }
    return p;
  };

  if (args.trace == 0) {
    Phase p = run(args.seconds, nullptr, nullptr);
    std::printf("workload %s seed %llu: %zu rounds of %zu statements, host slowdown median %.3f, "
                "before set-up %.3f\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                p.reads.size(), round.size(), Median(p.slowdowns), setup.slowdown);
    PrintEndToEnd("raw", Summarize(p, setup, false));
    const EndToEnd e = Summarize(p, setup, true);
    PrintEndToEnd("rescaled", e);
    PrintResult(verdict, attempted, EndToEndMetrics(e));
    return 0;
  }

  Phase untraced = run(args.seconds / 2, nullptr, nullptr);
  Tracer tracer;
  LayerStats stats;
  Phase traced = run(args.seconds / 2, &tracer, &stats);
  EnginePass(session, round, &tracer, &stats, &verdict);
  CombinePass(session, round, kCombineMaxLog10, &tracer, &stats, &verdict);
  PrintOverhead(Summarize(untraced, setup, true), Summarize(traced, setup, true));
  if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
    Die("cannot write " + args.trace_out);
  }
  std::printf("%zu spans written to %s\n", tracer.size(), args.trace_out.c_str());
  PrintResult(verdict, attempted, LayerMetrics(stats));
  return 0;
}

// ---------------------------------------------------------------------------
// durable_server: the TCP server on loopback over paged storage.
// ---------------------------------------------------------------------------

/// Lets clients run rounds only inside an epoch, so the reference kernel
/// is timed while no statement is in flight.
class Gate {
 public:
  /// Blocks until an epoch is open; false once the run stops (only when
  /// `may_stop`: a writer finishing its round passes).
  bool Enter(bool may_stop) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !paused_ || stopping_; });
    if (stopping_ && may_stop) return false;
    ++in_flight_;
    return true;
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    cv_.notify_all();
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    cv_.notify_all();
  }
  /// Closes the epoch and waits until no round is in flight.
  void CloseAndDrain() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.wait(lock, [&] { return in_flight_ == 0; });
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = true;
  bool stopping_ = false;
  int in_flight_ = 0;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

/// A server reply, checked. Returns the round-trip time in ms.
double Request(const mb::server::Fd& fd, const Template& t, Tracer* tracer,
               int64_t stmt, Verdict* verdict) {
  ScopedSpan span(tracer, "server.roundtrip", stmt);
  auto reply = mb::server::RoundTrip(fd, t.sql, 60'000);
  const double ms = span.Close();
  if (!reply.ok()) {
    verdict->Failed(t.name + ": " + reply.status().ToString());
  } else if (reply->first != mb::StatusCode::kOk) {
    verdict->Failed(t.name + ": " + reply->second);
  } else if (t.op == Op::kRead) {
    Answer a;
    if (!FromText(reply->second, &a)) {
      verdict->Wrong(t.name + ": unparsable answer");
    } else {
      std::string wrong = t.check(a);
      if (!wrong.empty()) verdict->Wrong(t.name + ": " + wrong);
    }
  }
  return ms;
}

int RunServer(const Args& args, const WorkloadSpec& spec) {
  // Two readers and a writer: with their server-side workers they leave a
  // core free for the writer's commit, which keeps reader latency steady.
  // The reference kernel runs one copy per client.
  const int readers = 2;
  Verdict verdict;
  RefKernel kernel(args.kernel, readers + 1, kNominalThreeCopiesMs);

  const Inputs in = MakeInputs(spec, args.seed);
  const std::vector<std::string> load = LoadStatements(in);
  mb::server::ServerOptions options;
  options.session.engine = spec.engine;
  options.session.storage = mb::isql::StorageMode::kPaged;
  options.session.storage_dir = args.store_dir + "/server";
  options.session.pool_pages = 1024;
  options.session.threads = kThreads;
  fs::create_directories(options.session.storage_dir);
  // Set-up: from starting an empty server to connected clients.
  Setup setup;
  setup.slowdown = SlowdownBeforeSetup(&kernel);
  const int64_t setup_start = NowNs();
  auto started = mb::server::Server::Start(options);
  if (!started.ok()) Die("server: " + started.status().ToString());
  std::unique_ptr<mb::server::Server> server = std::move(started).value();
  for (const std::string& sql : load) {
    auto [code, text] = server->Execute(sql);
    if (code != mb::StatusCode::kOk) Die("setup: " + text);
  }
  std::vector<mb::server::Fd> conns;
  for (int i = 0; i <= readers; ++i) {  // conns[readers] is the writer's
    auto fd = mb::server::ConnectTo("127.0.0.1", server->port());
    if (!fd.ok()) Die("connect: " + fd.status().ToString());
    conns.push_back(std::move(fd).value());
  }
  setup.ms = static_cast<double>(ElapsedNs(setup_start)) / 1e6;

  const std::vector<Template> writes = ServerWrites();
  const Template base_digest = DigestRead(in, /*admit_inserted=*/false);
  const uint64_t max_store = kMaxStoreMb << 20;
  std::atomic<bool> store_full{false};
  std::atomic<int64_t> next_stmt{0};
  uint64_t attempted = 0;

  auto run = [&](double seconds, Tracer* tracer) {
    struct Client {
      std::vector<double> rounds;  // per round: read or write time
      std::vector<double> latencies;
      std::atomic<uint64_t> statements{0};
    };
    std::vector<Client> clients(static_cast<size_t>(readers) + 1);
    Gate gate;
    std::vector<std::thread> threads;
    for (int c = 0; c < readers; ++c) {
      threads.emplace_back([&, c] {
        Client& me = clients[static_cast<size_t>(c)];
        Rng rng(args.seed * 7919 + static_cast<uint64_t>(c) + 1);
        while (gate.Enter(true)) {
          ScopedSpan round(tracer, "client.read_round");
          double total = 0;
          for (const Template& t : ServerReads(in, rng.Uniform(0, spec.i_keys - 1))) {
            const double ms = Request(conns[static_cast<size_t>(c)], t, tracer,
                                      next_stmt++, &verdict);
            me.latencies.push_back(ms);
            total += ms;
            ++me.statements;
          }
          round.Close();
          gate.Exit();
          me.rounds.push_back(total);
        }
      });
    }
    threads.emplace_back([&] {
      Client& me = clients.back();
      const mb::server::Fd& fd = conns.back();
      while (gate.Enter(true)) {
        // Round invariant: only this client writes, so a round starts
        // from the model's base state.
        Request(fd, base_digest, nullptr, -1, &verdict);
        ScopedSpan round(tracer, "client.write_round");
        double ms = Request(fd, writes[0], tracer, next_stmt++, &verdict);
        ++me.statements;
        gate.Exit();
        std::this_thread::sleep_for(std::chrono::milliseconds(kThinkMs));
        gate.Enter(false);
        ms += Request(fd, writes[1], tracer, next_stmt++, &verdict);
        round.Close();
        ++me.statements;
        gate.Exit();
        me.rounds.push_back(ms);
        if (DirBytes(args.store_dir) > max_store) {
          store_full = true;
          gate.Stop();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kThinkMs));
      }
    });

    // Throughput counts the statements completed between an epoch's open
    // and close, over that interval: the drain that follows (waiting for
    // a commit in flight while readers idle) is neither.
    Phase p;
    auto completed = [&clients] {
      uint64_t n = 0;
      for (const Client& c : clients) n += c.statements;
      return n;
    };
    p.slowdowns.push_back(kernel.Slowdown());
    const int64_t begin = NowNs();
    while (!store_full) {
      const double elapsed = static_cast<double>(ElapsedNs(begin)) / 1e6;
      if (elapsed >= seconds * 1e3) break;
      const uint64_t done_at_open = completed();
      const int64_t open = NowNs();
      gate.Open();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int>(std::min<double>(kEpochMs, seconds * 1e3 - elapsed)) + 1));
      p.statements += completed() - done_at_open;
      p.busy_ms += static_cast<double>(ElapsedNs(open)) / 1e6;
      gate.CloseAndDrain();
      p.slowdowns.push_back(kernel.Slowdown());
    }
    gate.Stop();
    for (std::thread& t : threads) t.join();
    if (store_full) {
      Die("store under " + args.store_dir + " exceeded " +
          std::to_string(kMaxStoreMb) + " MiB");
    }

    for (size_t c = 0; c < clients.size(); ++c) {
      std::vector<double>& into = c < static_cast<size_t>(readers) ? p.reads : p.writes;
      into.insert(into.end(), clients[c].rounds.begin(), clients[c].rounds.end());
      attempted += clients[c].statements;
      const Client& client = clients[c];
      p.read_latencies_ms.insert(p.read_latencies_ms.end(), client.latencies.begin(),
                                 client.latencies.end());
    }
    return p;
  };

  Tracer tracer;
  LayerStats stats;
  Phase p = run(args.trace ? args.seconds / 2 : args.seconds, nullptr);
  std::printf("workload %s seed %llu: %zu read rounds, %zu write rounds, %d readers, "
              "host slowdown median %.3f, before set-up %.3f, store %.1f MiB\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              p.reads.size(), p.writes.size(), readers, Median(p.slowdowns), setup.slowdown,
              static_cast<double>(DirBytes(args.store_dir)) / (1 << 20));
  PrintEndToEnd("raw", Summarize(p, setup, false));
  const EndToEnd untraced = Summarize(p, setup, true);
  PrintEndToEnd("rescaled", untraced);
  if (args.trace) {
    Phase traced = run(args.seconds / 2, &tracer);
    PrintOverhead(untraced, Summarize(traced, setup, true));
    std::printf("server read latency over %zu requests: p50 %.4f ms p99 %.4f ms\n",
                traced.read_latencies_ms.size(), Median(traced.read_latencies_ms),
                Quantile(traced.read_latencies_ms, 0.99));
    // Idle round trips versus the same statement executed in process.
    for (const Template& t : ServerReads(in, 0)) {
      for (int i = 0; i < kIdleReps; ++i) {
        stats.roundtrip_us.push_back(
            Request(conns[0], t, &tracer, next_stmt++, &verdict) * 1e3);
        ScopedSpan span(&tracer, "server.execute", next_stmt++);
        auto [code, text] = server->Execute(t.sql);
        stats.execute_us.push_back(span.Close() * 1e3);
        if (code != mb::StatusCode::kOk) verdict.Failed(t.name + ": " + text);
      }
    }
  }
  conns.clear();
  server->Shutdown();
  server.reset();

  // After a restart on the same store, the answers equal the model.
  {
    mb::isql::SessionOptions restart = options.session;
    mb::isql::Session session(restart);
    std::string drift = CheckShape(ExpectedShape(spec, in), MeasureShape(session.world_set()));
    if (!drift.empty()) verdict.Wrong("after restart: " + drift);
    std::vector<Template> checks = {base_digest};
    for (int64_t k : {int64_t{0}, int64_t{spec.i_keys - 1}}) {
      for (const Template& t : ServerReads(in, k)) {
        if (t.name != base_digest.name) checks.push_back(t);
      }
    }
    for (const Template& t : checks) {
      auto r = session.Execute(t.sql);
      if (!r.ok()) {
        verdict.Wrong("after restart, " + t.name + ": " + r.status().ToString());
        continue;
      }
      std::string wrong = t.check(FromResult(*r));
      if (!wrong.empty()) verdict.Wrong("after restart, " + t.name + ": " + wrong);
    }
  }

  if (args.trace == 0) {
    PrintResult(verdict, attempted, EndToEndMetrics(untraced));
    return 0;
  }

  // The layers below the wire, on a mirror session of the same data in a
  // store the benchmark owns, with each commit replayed on a clone.
  mb::isql::SessionOptions mirror_options = options.session;
  mirror_options.storage_dir = args.store_dir + "/mirror";
  fs::create_directories(mirror_options.storage_dir);
  mb::isql::Session mirror(mirror_options);
  for (const std::string& sql : load) {
    auto r = mirror.Execute(sql);
    if (!r.ok()) Die("mirror setup: " + r.status().ToString());
  }
  std::unique_ptr<StorageReplay> replay =
      StorageReplay::Open(args.store_dir + "/replay.db", &verdict);
  if (replay == nullptr) Die("cannot open the replay store");
  std::vector<Template> round;
  Rng rng(args.seed);
  for (int i = 0; i < kMirrorRounds; ++i) {
    round = ServerReads(in, rng.Uniform(0, spec.i_keys - 1));
    for (const Template& t : writes) round.push_back(t);
    TracedRound(&mirror, round, &tracer, replay.get(), &stats, &verdict);
  }
  EnginePass(mirror, round, &tracer, &stats, &verdict);
  CombinePass(mirror, round, kCombineMaxLog10, &tracer, &stats, &verdict);
  if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
    Die("cannot write " + args.trace_out);
  }
  std::printf("%zu spans written to %s\n", tracer.size(), args.trace_out.c_str());
  PrintResult(verdict, attempted, LayerMetrics(stats));
  return 0;
}

}  // namespace
}  // namespace isqlbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  isqlbench::Args args;
  if (!isqlbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: isql_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --store-dir <dir> --kernel <path> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  isqlbench::WorkloadSpec spec;
  if (!isqlbench::FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "isql_bench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return spec.server ? isqlbench::RunServer(args, spec)
                     : isqlbench::RunSession(args, spec);
}
