// Shared pieces of the benchmark harness: command-line options, the metric
// report, setup timing, the HTTP client loop, response parsing, and the
// in-process replay that attributes a request's time to the layers the
// server composes (Prepare → Open → Next → ResultEncoder →
// HttpResponseWriter). Every layer is reached through its public API only.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "benchlib.hpp"
#include "engine/options.hpp"
#include "rdf/dictionary.hpp"
#include "rdf/loader.hpp"
#include "server/http.hpp"
#include "server/sparql_server.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "util/status.hpp"

namespace perfbench {

using namespace turbo;

struct Args {
  std::string command;   ///< gen | oracle | run
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data;       ///< N-Triples input file
  std::string oracle;     ///< reference answers written by `oracle`
  std::string trace_dir;  ///< where the traced run writes spans + summary
};

/// Load run, untimed, between set-up and the timed window: the first half
/// second after set-up serves requests up to twice as slowly (allocator and
/// page-fault warm-up), which would otherwise set a run's p99. Its
/// responses are checked like any other.
inline constexpr double kWarmupSeconds = 2;

/// Dataset shape of a workload. The LUBM generator seed is fixed (the
/// generator's default): a LUBM-2 dataset's size moves by up to ±25 % with
/// the generator seed (15–25 departments per university), which would swamp
/// every end-to-end metric. The run seed drives everything else — query
/// order, the update stream and the read constants.
struct DatasetSpec {
  uint32_t universities = 2;
  uint32_t degree_pool = 0;
  uint64_t lubm_seed = 42;
  int setups = 11;  ///< set-up repetitions per run (setup_s is their median)
};
bool FindDatasetSpec(const std::string& workload, DatasetSpec* out);

// ---------------------------------------------------------------------------
// Report: every metric by name with its unit, plus sample counts; the last
// stdout line is the JSON result object.
// ---------------------------------------------------------------------------

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& note = {});
  /// A per-layer metric; its unit comes from the metric catalogue.
  void Layer(const std::string& name, double value);
  /// Counts one checked operation; `ok` false also marks the run incorrect.
  void Attempt(bool ok, const std::string& what = {});
  void Fail(const std::string& why);
  bool correct() const { return correct_ && failed_ == 0; }
  /// Prints every metric, then the JSON line; returns the exit code.
  int Finish(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> e2e_, layer_;
  uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
  int fail_logs_ = 0;
};

// ---------------------------------------------------------------------------
// Setup.
// ---------------------------------------------------------------------------

/// Load stage of setup: file → LoadNTriplesFile with the fused graph build.
util::Result<rdf::LoadResult> LoadServingInput(const std::string& path);

/// Builds the engine or store from a load and returns its not yet started
/// server; `release` drops the previous one (outside the timed path).
using BuildFn = std::function<std::unique_ptr<server::SparqlServer>(rdf::LoadResult)>;
using ReleaseFn = std::function<void()>;

/// The set-up path, `repeats` times: input file (warmed into the OS cache
/// first) → load → `build` → SparqlServer::Start(). Reports setup_s (median),
/// mem_mb (peak RSS after the first set-up) and the rdf.load.* and
/// sparql.engine_build_ms layer metrics (medians). Returns the last, running
/// server, or null on failure.
std::unique_ptr<server::SparqlServer> TimedSetup(const std::string& data, int repeats,
                                                 const ReleaseFn& release,
                                                 const BuildFn& build, Report* report);

/// Steal share above which a second of a timed window is left out of the
/// read figures (SummarizeQuiet). On the 4-vCPU VM the benchmark was tuned
/// on, quiet seconds showed 0–6 % steal and the seconds in which the read
/// tail rose three- to tenfold showed 13–44 %.
inline constexpr double kMaxStealShare = 0.10;

/// Marks the VM's CPU counters once a second, on its own thread, from
/// construction until Stop().
class CpuSampler {
 public:
  CpuSampler();
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;
  /// Takes a last mark, ends the thread and returns every mark.
  std::vector<CpuMark> Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<CpuMark> marks_;
  std::thread thread_;
};

/// Reports qps, p50_ms and p99_ms (the tail the sample supports) over the
/// window's quiet seconds, each with its sample count.
void ReportReadLatency(const QuietSummary& lat, Report* report);

// ---------------------------------------------------------------------------
// HTTP client side.
// ---------------------------------------------------------------------------

std::string UrlEncode(const std::string& s);

/// One keep-alive connection to the endpoint.
class Client {
 public:
  explicit Client(uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Send(const std::string& method, const std::string& target,
            const std::map<std::string, std::string>& headers = {},
            const std::string& body = {});
  bool WaitFirstByte();
  bool Read(server::HttpResponse* resp);

 private:
  int fd_ = -1;
  std::string leftover_;
};

/// Result rows of a response body as canonical N-Triples cells.
using Rows = std::vector<std::vector<std::string>>;
bool ParseTsvBody(const std::string& body, Rows* rows, std::string* err);
bool ParseJsonBody(const std::string& body, Rows* rows, std::string* err);

/// Cheap row counts for the timed window: false if the body is not a
/// complete, unstopped result of that format.
bool CountTsvRows(const std::string& body, uint64_t* rows);
bool CountJsonRows(const std::string& body, uint64_t* rows);

/// Canonical cells of one engine row (the oracle side).
std::vector<std::string> CanonicalRow(const sparql::Row& row, size_t width,
                                      const rdf::Dictionary& dict,
                                      const sparql::LocalVocab* local);

// ---------------------------------------------------------------------------
// Client-side timing log and spans.
// ---------------------------------------------------------------------------

/// One request as the client saw it (steady-clock ns).
struct ClientRecord {
  uint32_t kind = 0;      ///< workload-defined (query index, or update)
  uint64_t seq = 0;       ///< workload-defined (e.g. update number)
  int64_t due_ns = 0;     ///< open loop: when it was due; closed loop: start
  int64_t start_ns = 0;   ///< request write begins
  int64_t sent_ns = 0;    ///< request fully written
  int64_t ttfb_ns = 0;    ///< first response byte (traced runs only)
  int64_t end_ns = 0;     ///< last response byte
  bool ok = false;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Adds the client.request span of one traced request (children
/// client.write / client.wait / client.read) under request id `id`; the
/// request's replay spans share the id.
void AddClientSpans(const ClientRecord& r, uint64_t id, Tracer* tracer);

/// Writes the span file (one JSON object per line) and a per-layer
/// self-time summary next to it.
void WriteTrace(const Tracer& tracer, const std::string& dir, const std::string& stem,
                uint64_t replayed_requests);

// ---------------------------------------------------------------------------
// In-process replay.
// ---------------------------------------------------------------------------

/// A loopback TCP connection whose far end a thread drains, so
/// HttpResponseWriter writes into a real socket as it does in the server.
class LocalSink {
 public:
  LocalSink();
  ~LocalSink();
  LocalSink(const LocalSink&) = delete;
  LocalSink& operator=(const LocalSink&) = delete;
  bool ok() const { return write_fd_ >= 0; }
  int fd() const { return write_fd_; }

 private:
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::thread drain_;
};

/// Per-layer totals over the replayed requests.
struct ReplayTotals {
  uint64_t requests = 0;
  double request_ms = 0, prepare_ms = 0, open_ms = 0, first_row_ms = 0;
  double drain_ms = 0, encode_ms = 0, write_ms = 0;
  uint64_t rows = 0, rows_before_modifiers = 0, encode_bytes = 0, channel_peak = 0;
  engine::MatchStats engine;  ///< summed per-request deltas
  double busy_capacity_ms = 0;  ///< Σ threads × (Open → last Next) wall
  uint64_t dict_hot_hits = 0, dict_hot_probes = 0;
};

/// Drives one replayed query request through the layers, recording spans.
class Replayer {
 public:
  explicit Replayer(Tracer* tracer);

  struct Query {
    uint64_t request_id = 0;
    const std::string* text = nullptr;
    std::string format;       ///< json | tsv
    uint64_t limit = sparql::kNoBudget;
    uint32_t engine_threads = 1;
  };
  using PrepareFn =
      std::function<util::Result<sparql::PreparedQuery>(const std::string&)>;
  using OpenFn = std::function<util::Result<sparql::Cursor>(const sparql::PreparedQuery&,
                                                             const sparql::ExecOptions&)>;

  /// `prepare` runs inside the sparql.prepare span (callers memoize it to
  /// mirror the endpoint's plan cache); `turbo` may be null (no engine
  /// stats, e.g. delta-overlay reads). Returns false on any failure.
  bool Run(const Query& q, const PrepareFn& prepare, const OpenFn& open,
           const rdf::Dictionary& dict, const sparql::TurboBgpSolver* turbo);

  const ReplayTotals& totals() const { return totals_; }
  bool sink_ok() const { return sink_.ok(); }

 private:
  Tracer* tr_;
  LocalSink sink_;
  ReplayTotals totals_;
  uint32_t n_request_, n_prepare_, n_open_, n_first_, n_next_, n_encode_, n_write_;
};

/// Reports the sparql.*, server.encode/write, util.*, engine.* layer
/// metrics from replay totals (means per replayed request).
void ReportReplay(const ReplayTotals& t, Report* report);

// Workload entry points (query_workloads.cpp / live_workload.cpp).
int RunOracle(const Args& args);
int RunQueryWorkload(const Args& args, Report* report);
int RunLiveWorkload(const Args& args, Report* report);

}  // namespace perfbench
