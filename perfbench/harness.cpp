// Benchmark harness entry point and shared machinery (see harness.hpp).
//
//   perfbench gen    --workload W --data FILE
//   perfbench oracle --workload W --data FILE --oracle FILE
//   perfbench run    --workload W --seed N --seconds S --trace 0|1
//                    --data FILE [--oracle FILE] --trace-dir DIR
//
// `gen` and `oracle` run as their own processes so the measured process's
// peak RSS is its own setup's, not the generator's or the reference
// solver's. perfbench/run.py sequences the three.
#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <iomanip>

#include "rdf/term.hpp"
#include "server/result_encoder.hpp"
#include "sparql/local_vocab.hpp"
#include "workload/lubm.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Workloads and metric catalogue.
// ---------------------------------------------------------------------------

bool FindDatasetSpec(const std::string& workload, DatasetSpec* out) {
  *out = DatasetSpec{};
  if (workload == "lubm-join") {
    // The Fig. 16 regime: every degree hits a materialized university.
    out->universities = 16;
    out->degree_pool = 16;
    out->setups = 3;
    return true;
  }
  return workload == "lubm-bulk" || workload == "live-mixed";
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A traced run prints all
// of them; a metric a workload does not exercise reads 0.
constexpr MetricDef kLayerMetrics[] = {
    {"rdf.load.read_ms", "ms"},
    {"rdf.load.parse_ms", "ms"},
    {"rdf.load.merge_ms", "ms"},
    {"rdf.load.remap_ms", "ms"},
    {"rdf.load.graph_ms", "ms"},
    {"rdf.load.triples", "count"},
    {"rdf.load.terms", "count"},
    {"rdf.dict.hot_hit_ratio", "ratio"},
    {"graph.adjacency_bytes", "bytes"},
    {"graph.total_bytes", "bytes"},
    {"sparql.engine_build_ms", "ms"},
    {"sparql.prepare_ms", "ms"},
    {"sparql.open_ms", "ms"},
    {"sparql.first_row_ms", "ms"},
    {"sparql.drain_ms", "ms"},
    {"sparql.rows", "count"},
    {"sparql.rows_before_modifiers", "count"},
    {"util.channel_peak_rows", "count"},
    {"engine.explore_ms", "ms"},
    {"engine.order_ms", "ms"},
    {"engine.search_ms", "ms"},
    {"engine.busy_ratio", "ratio"},
    {"engine.start_candidates", "count"},
    {"engine.regions", "count"},
    {"engine.cr_candidates", "count"},
    {"engine.intersections", "count"},
    {"engine.solutions", "count"},
    {"engine.sig_prune_ratio", "ratio"},
    {"engine.solutions_per_cr_candidate", "ratio"},
    {"engine.arena_warm_ratio", "ratio"},
    {"server.ttfb_ms", "ms"},
    {"server.encode_ms", "ms"},
    {"server.encode_bytes", "bytes"},
    {"server.write_ms", "ms"},
    {"server.plan_cache_hit_ratio", "ratio"},
    {"server.unattributed_ms", "ms"},
    {"server.rejected_503", "count"},
    {"server.bad_requests", "count"},
    {"replay.request_ms", "ms"},
    {"store.update_ms", "ms"},
    {"store.first_update_ms", "ms"},
    {"store.compact_ms", "ms"},
    {"store.compactions", "count"},
    {"store.delta_read_ratio", "ratio"},
    {"store.delta_peak", "count"},
    {"update_p50_ms", "ms"},
    {"update_p99_ms", "ms"},
    {"harness.late_p99_ms", "ms"},
    {"harness.samples", "count"},
    {"trace.overhead_ratio", "ratio"},
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value, const std::string& unit,
                      const std::string& note) {
  e2e_.push_back({name, value, unit, note});
}

void Report::Layer(const std::string& name, double value) {
  for (Metric& m : layer_)
    if (m.name == name) {
      m.value = value;
      return;
    }
  layer_.push_back({name, value, {}, {}});
}

void Report::Attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (fail_logs_++ < 20 && !what.empty())
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

int Report::Finish(bool trace) const {
  double ratio =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0;
  std::printf("failed_ratio %.6f (failed %" PRIu64 " of %" PRIu64 " attempted)\n", ratio,
              failed_, attempted_);
  for (const Metric& m : e2e_)
    std::printf("%-34s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  std::string metrics;
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + name + "\":{\"value\":" + JsonNumber(value) + ",\"unit\":\"" +
               unit + "\"}";
  };
  if (trace) {
    for (const MetricDef& d : kLayerMetrics) {
      double value = 0;
      bool set = false;
      for (const Metric& m : layer_)
        if (m.name == d.name) {
          value = m.value;
          set = true;
        }
      std::printf("%-34s %14.4f %-6s%s\n", d.name, value, d.unit,
                  set ? "" : " (not exercised by this workload)");
      add(d.name, value, d.unit);
    }
    for (const Metric& m : layer_) {
      bool known = false;
      for (const MetricDef& d : kLayerMetrics) known = known || m.name == d.name;
      if (!known)
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n", m.name.c_str());
    }
  } else {
    for (const Metric& m : e2e_) add(m.name, m.value, m.unit);
  }
  bool ok = correct();
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{%s}}\n",
              ok ? "true" : "false", attempted_, failed_, metrics.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Setup.
// ---------------------------------------------------------------------------

namespace {

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Reads `path` once and discards it, so set-up reads from the OS cache.
void WarmFileCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(1 << 20);
  const auto chunk = static_cast<std::streamsize>(buf.size());
  while (in.read(buf.data(), chunk) || in.gcount() > 0) {
  }
}

struct SetupTimes {
  double total_s = 0;
  double engine_build_ms = 0;
  rdf::LoadStats load;
};

}  // namespace

util::Result<rdf::LoadResult> LoadServingInput(const std::string& path) {
  rdf::LoadOptions lo;
  lo.build_graph = true;
  return rdf::LoadNTriplesFile(path, lo);
}

std::unique_ptr<server::SparqlServer> TimedSetup(const std::string& data, int repeats,
                                                 const ReleaseFn& release,
                                                 const BuildFn& build, Report* report) {
  WarmFileCache(data);
  std::vector<SetupTimes> runs;
  double mem_mb = 0;
  std::unique_ptr<server::SparqlServer> srv;
  for (int i = 0; i < repeats; ++i) {
    srv.reset();  // the server goes before the engine it serves
    release();
    int64_t t0 = NowNs();
    auto loaded = LoadServingInput(data);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: load failed: %s\n", loaded.message().c_str());
      return nullptr;
    }
    SetupTimes t;
    t.load = loaded.value().stats;
    int64_t t1 = NowNs();
    srv = build(std::move(loaded.value()));
    int64_t t2 = NowNs();
    if (auto st = srv->Start(); !st.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n", st.message().c_str());
      return nullptr;
    }
    t.total_s = static_cast<double>(NowNs() - t0) / 1e9;
    t.engine_build_ms = static_cast<double>(t2 - t1) / 1e6;
    runs.push_back(t);
    if (i == 0) mem_mb = PeakRssMb();
  }
  auto med = [&runs](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : runs) v.push_back(r.*field);
    return Median(v);
  };
  auto load_med = [&runs](double rdf::LoadStats::*field) {
    std::vector<double> v;
    for (const SetupTimes& r : runs) v.push_back(r.load.*field);
    return Median(v);
  };
  char note[96];
  std::snprintf(note, sizeof note, "median of %zu set-ups, input from the OS cache",
                runs.size());
  report->EndToEnd("setup_s", med(&SetupTimes::total_s), "s", note);
  report->EndToEnd("mem_mb", mem_mb, "MiB", "peak RSS at the end of the first set-up");
  report->Layer("rdf.load.read_ms", load_med(&rdf::LoadStats::read_ms));
  report->Layer("rdf.load.parse_ms", load_med(&rdf::LoadStats::parse_ms));
  report->Layer("rdf.load.merge_ms", load_med(&rdf::LoadStats::merge_ms));
  report->Layer("rdf.load.remap_ms", load_med(&rdf::LoadStats::remap_ms));
  report->Layer("rdf.load.graph_ms", load_med(&rdf::LoadStats::graph_ms));
  report->Layer("rdf.load.triples", static_cast<double>(runs.back().load.triples));
  report->Layer("rdf.load.terms", static_cast<double>(runs.back().load.terms));
  report->Layer("sparql.engine_build_ms", med(&SetupTimes::engine_build_ms));
  return srv;
}

namespace {

/// The aggregate "cpu" line of /proc/stat; zeros when it cannot be read.
CpuMark ReadCpuMark() {
  CpuMark m;
  m.at_ns = NowNs();
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
           steal = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal &&
      cpu == "cpu") {
    m.busy = user + nice + system + irq + softirq;
    m.steal = steal;
  }
  return m;
}

}  // namespace

CpuSampler::CpuSampler() : thread_([this] {
  std::unique_lock<std::mutex> lock(mu_);
  marks_.push_back(ReadCpuMark());
  while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; }))
    marks_.push_back(ReadCpuMark());
}) {}

CpuSampler::~CpuSampler() { Stop(); }

std::vector<CpuMark> CpuSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return marks_;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  marks_.push_back(ReadCpuMark());
  return marks_;
}

void ReportReadLatency(const QuietSummary& lat, Report* report) {
  char quiet[64], n50[96], ntail[96], nq[128];
  std::snprintf(quiet, sizeof quiet, "quiet %.0f of %.0f s", lat.quiet_seconds, lat.seconds);
  std::snprintf(n50, sizeof n50, "n=%zu, %s", lat.lat.n, quiet);
  std::snprintf(ntail, sizeof ntail, "q=%.3f n=%zu, %s", lat.lat.tail_q, lat.lat.n, quiet);
  std::snprintf(nq, sizeof nq, "completed requests per second, n=%zu, %s", lat.lat.n, quiet);
  report->EndToEnd("qps", lat.qps, "1/s", nq);
  report->EndToEnd("p50_ms", lat.lat.p50, "ms", n50);
  report->EndToEnd("p99_ms", lat.lat.tail, "ms", ntail);
}

// ---------------------------------------------------------------------------
// HTTP client side and response parsing.
// ---------------------------------------------------------------------------

std::string UrlEncode(const std::string& s) {
  std::string out;
  char buf[8];
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    }
  }
  return out;
}

Client::Client(uint16_t port) : fd_(server::DialLocal(port)) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

bool Client::Send(const std::string& method, const std::string& target,
                  const std::map<std::string, std::string>& headers,
                  const std::string& body) {
  return fd_ >= 0 && server::WriteHttpRequest(fd_, method, target, headers, body).ok();
}

bool Client::WaitFirstByte() { return server::WaitForResponseByte(fd_, &leftover_); }

bool Client::Read(server::HttpResponse* resp) {
  return server::ReadHttpResponse(fd_, resp, &leftover_).ok();
}

namespace {

/// Parses one N-Triples term at s[*i] (IRI, blank node, or literal with an
/// optional datatype / language tag) into its canonical form.
bool ParseNtCell(std::string_view cell, std::string* out) {
  if (cell.size() >= 2 && cell.front() == '<' && cell.back() == '>') {
    *out = std::string(cell);
    return true;
  }
  if (cell.rfind("_:", 0) == 0) {
    *out = std::string(cell);
    return true;
  }
  if (cell.empty() || cell.front() != '"') return false;
  size_t close = std::string_view::npos;
  for (size_t i = 1; i < cell.size(); ++i) {
    if (cell[i] == '\\') {
      ++i;
      continue;
    }
    if (cell[i] == '"') {
      close = i;
      break;
    }
  }
  if (close == std::string_view::npos) return false;
  rdf::Term t = rdf::Term::Literal(rdf::UnescapeNTriples(cell.substr(1, close - 1)));
  std::string_view rest = cell.substr(close + 1);
  if (rest.rfind("^^<", 0) == 0 && rest.back() == '>') {
    t.datatype = std::string(rest.substr(3, rest.size() - 4));
  } else if (rest.rfind("@", 0) == 0) {
    t.lang = std::string(rest.substr(1));
  } else if (!rest.empty()) {
    return false;
  }
  *out = t.ToNTriples();
  return true;
}

}  // namespace

bool ParseTsvBody(const std::string& body, Rows* rows, std::string* err) {
  rows->clear();
  size_t pos = body.find('\n');
  if (pos == std::string::npos) {
    *err = "tsv: no header line";
    return false;
  }
  ++pos;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) {
      *err = "tsv: unterminated row";
      return false;
    }
    std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.front() == '#') {
      *err = "tsv: stream stopped: " + std::string(line);
      return false;
    }
    std::vector<std::string> cells;
    size_t b = 0;
    for (;;) {
      size_t tab = line.find('\t', b);
      std::string_view cell =
          line.substr(b, tab == std::string_view::npos ? line.npos : tab - b);
      std::string canon;
      if (!ParseNtCell(cell, &canon)) {
        *err = "tsv: bad cell " + std::string(cell);
        return false;
      }
      cells.push_back(std::move(canon));
      if (tab == std::string_view::npos) break;
      b = tab + 1;
    }
    rows->push_back(std::move(cells));
  }
  return true;
}

bool ParseJsonBody(const std::string& body, Rows* rows, std::string* err) {
  rows->clear();
  Json doc;
  if (!JsonReader(body).Parse(&doc)) {
    *err = "json: malformed body";
    return false;
  }
  if (doc.Get("stopped")) {
    *err = "json: stream stopped: " + doc.Get("stopped")->str;
    return false;
  }
  const Json* head = doc.Get("head");
  const Json* vars = head ? head->Get("vars") : nullptr;
  const Json* results = doc.Get("results");
  const Json* bindings = results ? results->Get("bindings") : nullptr;
  if (!vars || !bindings || bindings->kind != Json::Kind::kArray) {
    *err = "json: missing head.vars or results.bindings";
    return false;
  }
  for (const Json& b : bindings->items) {
    std::vector<std::string> cells;
    for (const Json& v : vars->items) {
      const Json* cell = b.Get(v.str);
      if (!cell) {
        cells.emplace_back();  // unbound
        continue;
      }
      const Json* type = cell->Get("type");
      const Json* value = cell->Get("value");
      if (!type || !value) {
        *err = "json: binding without type/value";
        return false;
      }
      rdf::Term t;
      if (type->str == "uri") {
        t = rdf::Term::Iri(value->str);
      } else if (type->str == "bnode") {
        t = rdf::Term::Blank(value->str);
      } else {
        t = rdf::Term::Literal(value->str);
        if (const Json* dt = cell->Get("datatype")) t.datatype = dt->str;
        if (const Json* lang = cell->Get("xml:lang")) t.lang = lang->str;
      }
      cells.push_back(t.ToNTriples());
    }
    rows->push_back(std::move(cells));
  }
  return true;
}

bool CountTsvRows(const std::string& body, uint64_t* rows) {
  if (body.empty() || body.back() != '\n') return false;
  if (body.find("\n#") != std::string::npos) return false;  // "# stopped: ..."
  *rows = static_cast<uint64_t>(std::count(body.begin(), body.end(), '\n')) - 1;
  return true;
}

bool CountJsonRows(const std::string& body, uint64_t* rows) {
  // Every row object starts a line ("\n{"); a clean stream ends "]}}\n", a
  // stopped one carries a "stopped" member after the bindings array.
  static constexpr std::string_view kEnd = "\n]}}\n";
  if (body.size() < kEnd.size() ||
      std::string_view(body).substr(body.size() - kEnd.size()) != kEnd)
    return false;
  uint64_t n = 0;
  for (size_t p = body.find("\n{"); p != std::string::npos; p = body.find("\n{", p + 2))
    ++n;
  *rows = n;
  return true;
}

std::vector<std::string> CanonicalRow(const sparql::Row& row, size_t width,
                                      const rdf::Dictionary& dict,
                                      const sparql::LocalVocab* local) {
  std::vector<std::string> cells(width);
  for (size_t i = 0; i < width && i < row.size(); ++i) {
    if (row[i] == kInvalidId) continue;
    if (const rdf::Term* t = sparql::ResolveTerm(dict, local, row[i]))
      cells[i] = t->ToNTriples();
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Spans and trace output.
// ---------------------------------------------------------------------------

void AddClientSpans(const ClientRecord& r, uint64_t id, Tracer* tracer) {
  uint32_t root =
      tracer->Add(tracer->NameId("client.request"), 0, id, r.start_ns, r.end_ns);
  tracer->Add(tracer->NameId("client.write"), root, id, r.start_ns, r.sent_ns);
  if (r.ttfb_ns > 0) {
    tracer->Add(tracer->NameId("client.wait"), root, id, r.sent_ns, r.ttfb_ns);
    tracer->Add(tracer->NameId("client.read"), root, id, r.ttfb_ns, r.end_ns);
  }
}

void WriteTrace(const Tracer& tracer, const std::string& dir, const std::string& stem,
                uint64_t replayed_requests) {
  std::string span_path = dir + "/" + stem + ".spans.jsonl";
  std::ofstream out(span_path);
  out << std::fixed << std::setprecision(3);
  const std::vector<Span>& spans = tracer.spans();
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << tracer.names()[s.name]
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << (s.start_ns - t0) / 1000.0
        << ",\"end_us\":" << (s.end_ns - t0) / 1000.0 << "}\n";
  }
  // Per-layer self time; "per request" divides by the requests that have
  // spans in that layer (the client view covers every traced request, the
  // replay layers only the replayed ones).
  std::map<std::string, LayerSelfTime> layers = SelfTimeByLayer(tracer);
  std::ofstream sum(dir + "/" + stem + ".summary.txt");
  sum << "# per-layer self time (span duration minus child-covered time)\n"
      << "# spans: " << spans.size() << ", replayed requests: " << replayed_requests
      << "\n"
      << "# layer  total_self_ms  requests  self_ms_per_request\n";
  char line[160];
  for (const auto& [layer, v] : layers) {
    double per = v.ms / static_cast<double>(v.requests);
    std::snprintf(line, sizeof line, "%-10s %14.3f %9zu %14.4f\n", layer.c_str(), v.ms,
                  v.requests, per);
    sum << line;
    std::printf(
        "trace self time %-10s %12.3f ms over %zu requests, %10.4f ms per request\n",
        layer.c_str(), v.ms, v.requests, per);
  }
  std::printf("trace written: %s (%zu spans)\n", span_path.c_str(), spans.size());
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

LocalSink::LocalSink() {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    return;
  }
  read_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (read_fd_ >= 0 &&
      ::connect(read_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
    write_fd_ = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  if (write_fd_ < 0) {
    if (read_fd_ >= 0) ::close(read_fd_);
    read_fd_ = -1;
    return;
  }
  // The server sets TCP_NODELAY on accepted connections; so does the sink.
  int one = 1;
  ::setsockopt(write_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  drain_ = std::thread([this] {
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::recv(read_fd_, buf, sizeof buf, 0);
      if (n > 0 || (n < 0 && errno == EINTR)) continue;
      return;
    }
  });
}

LocalSink::~LocalSink() {
  if (write_fd_ >= 0) {
    ::shutdown(write_fd_, SHUT_WR);  // the drain thread sees EOF and exits
    if (drain_.joinable()) drain_.join();
    ::close(write_fd_);
  }
  if (read_fd_ >= 0) ::close(read_fd_);
}

Replayer::Replayer(Tracer* tracer) : tr_(tracer) {
  n_request_ = tr_->NameId("replay.request");
  n_prepare_ = tr_->NameId("sparql.prepare");
  n_open_ = tr_->NameId("sparql.open");
  n_first_ = tr_->NameId("sparql.first_row");
  n_next_ = tr_->NameId("sparql.next");
  n_encode_ = tr_->NameId("server.encode");
  n_write_ = tr_->NameId("server.write");
}

namespace {

double SpanMs(const Tracer& t, uint32_t handle) {
  const Span& s = t.spans()[handle - 1];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

void SubtractStats(const engine::MatchStats& after, const engine::MatchStats& before,
                   engine::MatchStats* acc) {
  acc->num_solutions += after.num_solutions - before.num_solutions;
  acc->num_start_candidates += after.num_start_candidates - before.num_start_candidates;
  acc->num_regions += after.num_regions - before.num_regions;
  acc->cr_candidate_vertices +=
      after.cr_candidate_vertices - before.cr_candidate_vertices;
  acc->intersection_ops += after.intersection_ops - before.intersection_ops;
  acc->sig_checks += after.sig_checks - before.sig_checks;
  acc->sig_prunes += after.sig_prunes - before.sig_prunes;
  acc->arena_workers += after.arena_workers - before.arena_workers;
  acc->arena_warm += after.arena_warm - before.arena_warm;
  acc->explore_ms += after.explore_ms - before.explore_ms;
  acc->search_ms += after.search_ms - before.search_ms;
  acc->order_ms += after.order_ms - before.order_ms;
}

}  // namespace

bool Replayer::Run(const Query& q, const PrepareFn& prepare, const OpenFn& open,
                   const rdf::Dictionary& dict, const sparql::TurboBgpSolver* turbo) {
  constexpr size_t kBatch = 64;         // = the endpoint's default channel capacity
  constexpr size_t kFlushBytes = 8192;  // the endpoint's chunk batching
  const uint64_t id = q.request_id;
  // Counter snapshots sit outside the request span: they are the replay's
  // own bookkeeping, not work the endpoint does.
  rdf::Dictionary::LayoutStats dict_before = dict.layout_stats();
  engine::MatchStats stats_before = turbo ? turbo->last_stats() : engine::MatchStats{};
  uint32_t root = tr_->Begin(n_request_, 0, id);

  auto fail = [&] {
    tr_->End(root);
    return false;
  };

  uint32_t h = tr_->Begin(n_prepare_, root, id);
  auto prepared = prepare(*q.text);
  tr_->End(h);
  totals_.prepare_ms += SpanMs(*tr_, h);
  if (!prepared.ok()) return fail();
  sparql::ExecOptions opts;
  opts.streaming = true;
  opts.channel_capacity = kBatch;
  opts.limit_budget = q.limit;
  std::unique_ptr<server::ResultEncoder> enc = server::MakeResultEncoder(q.format);
  server::HttpResponseWriter w(sink_.fd());
  bool ok = true;
  uint64_t rows = 0, bytes = 0;
  int64_t exec_begin = 0, exec_end = 0;
  {
    h = tr_->Begin(n_open_, root, id);
    exec_begin = tr_->spans()[h - 1].start_ns;
    auto cursor = open(prepared.value(), opts);
    tr_->End(h);
    totals_.open_ms += SpanMs(*tr_, h);
    if (!cursor.ok()) return fail();
    sparql::Cursor& cur = cursor.value();

    std::vector<sparql::Row> batch(kBatch);
    h = tr_->Begin(n_first_, root, id);
    size_t have = cur.Next(&batch[0]) ? 1 : 0;
    tr_->End(h);
    totals_.first_row_ms += SpanMs(*tr_, h);
    exec_end = tr_->spans()[h - 1].end_ns;
    if (have == 0 && !cur.status().ok()) return fail();

    h = tr_->Begin(n_write_, root, id);
    ok = w.BeginChunked(200, enc->content_type(), {}, "X-Stop-Cause");
    tr_->End(h);
    totals_.write_ms += SpanMs(*tr_, h);

    const std::vector<std::string>& vars = cur.var_names();
    std::shared_ptr<const sparql::LocalVocab> vocab = cur.local_vocab();
    h = tr_->Begin(n_encode_, root, id);
    std::string buf = enc->Header(vars);
    tr_->End(h);
    totals_.encode_ms += SpanMs(*tr_, h);
    bool first_flush = true;
    while (ok && have > 0) {
      h = tr_->Begin(n_encode_, root, id);
      for (size_t i = 0; i < have; ++i)
        buf += enc->EncodeRow(vars, batch[i], dict, vocab.get());
      tr_->End(h);
      totals_.encode_ms += SpanMs(*tr_, h);
      rows += have;
      if (first_flush || buf.size() >= kFlushBytes) {
        first_flush = false;
        bytes += buf.size();
        h = tr_->Begin(n_write_, root, id);
        ok = w.Chunk(buf);
        tr_->End(h);
        totals_.write_ms += SpanMs(*tr_, h);
        buf.clear();
      }
      h = tr_->Begin(n_next_, root, id);
      have = 0;
      while (have < kBatch && cur.Next(&batch[have])) ++have;
      tr_->End(h);
      totals_.drain_ms += SpanMs(*tr_, h);
      exec_end = tr_->spans()[h - 1].end_ns;
    }
    ok = ok && cur.status().ok();
    h = tr_->Begin(n_encode_, root, id);
    buf += enc->Footer(cur.stop_cause());
    tr_->End(h);
    totals_.encode_ms += SpanMs(*tr_, h);
    bytes += buf.size();
    h = tr_->Begin(n_write_, root, id);
    ok = ok && w.Chunk(buf) &&
         w.EndChunked({{"X-Stop-Cause", sparql::ToString(cur.stop_cause())}});
    tr_->End(h);
    totals_.write_ms += SpanMs(*tr_, h);

    totals_.rows_before_modifiers += cur.rows_before_modifiers();
    totals_.channel_peak = std::max(totals_.channel_peak, cur.peak_channel_rows());
  }  // the cursor (and its producer thread) is gone: engine stats are final
  tr_->End(root);
  if (turbo) SubtractStats(turbo->last_stats(), stats_before, &totals_.engine);
  rdf::Dictionary::LayoutStats dict_after = dict.layout_stats();
  totals_.dict_hot_hits += dict_after.hot_hits - dict_before.hot_hits;
  totals_.dict_hot_probes += dict_after.hot_probes - dict_before.hot_probes;
  totals_.busy_capacity_ms +=
      q.engine_threads * static_cast<double>(exec_end - exec_begin) / 1e6;
  totals_.request_ms += SpanMs(*tr_, root);
  totals_.rows += rows;
  totals_.encode_bytes += bytes;
  ++totals_.requests;
  return ok;
}

void ReportReplay(const ReplayTotals& t, Report* report) {
  const double n = t.requests ? static_cast<double>(t.requests) : 1;
  auto mean = [n](auto total) { return static_cast<double>(total) / n; };
  auto ratio = [](auto num, auto den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const engine::MatchStats& e = t.engine;
  report->Layer("replay.request_ms", mean(t.request_ms));
  report->Layer("sparql.prepare_ms", mean(t.prepare_ms));
  report->Layer("sparql.open_ms", mean(t.open_ms));
  report->Layer("sparql.first_row_ms", mean(t.first_row_ms));
  report->Layer("sparql.drain_ms", mean(t.drain_ms));
  report->Layer("sparql.rows", mean(t.rows));
  report->Layer("sparql.rows_before_modifiers", mean(t.rows_before_modifiers));
  report->Layer("util.channel_peak_rows", static_cast<double>(t.channel_peak));
  report->Layer("server.encode_ms", mean(t.encode_ms));
  report->Layer("server.encode_bytes", mean(t.encode_bytes));
  report->Layer("server.write_ms", mean(t.write_ms));
  report->Layer("rdf.dict.hot_hit_ratio", ratio(t.dict_hot_hits, t.dict_hot_probes));
  report->Layer("engine.explore_ms", mean(e.explore_ms));
  report->Layer("engine.order_ms", mean(e.order_ms));
  report->Layer("engine.search_ms", mean(e.search_ms));
  report->Layer("engine.busy_ratio",
                ratio(e.explore_ms + e.search_ms + e.order_ms, t.busy_capacity_ms));
  report->Layer("engine.start_candidates", mean(e.num_start_candidates));
  report->Layer("engine.regions", mean(e.num_regions));
  report->Layer("engine.cr_candidates", mean(e.cr_candidate_vertices));
  report->Layer("engine.intersections", mean(e.intersection_ops));
  report->Layer("engine.solutions", mean(e.num_solutions));
  report->Layer("engine.sig_prune_ratio", ratio(e.sig_prunes, e.sig_checks));
  report->Layer("engine.solutions_per_cr_candidate",
                ratio(e.num_solutions, e.cr_candidate_vertices));
  report->Layer("engine.arena_warm_ratio", ratio(e.arena_warm, e.arena_workers));
}

}  // namespace perfbench

// ---------------------------------------------------------------------------
// main.
// ---------------------------------------------------------------------------

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* a) {
  if (argc < 2) return false;
  a->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--data") a->data = v;
    else if (k == "--oracle") a->oracle = v;
    else if (k == "--trace-dir") a->trace_dir = v;
    else return false;
  }
  return (argc % 2) == 0 && a->seconds > 0;
}

int Generate(const perfbench::Args& a) {
  perfbench::DatasetSpec spec;
  if (!perfbench::FindDatasetSpec(a.workload, &spec)) return 2;
  turbo::workload::LubmConfig cfg;
  cfg.seed = spec.lubm_seed;
  cfg.num_universities = spec.universities;
  cfg.degree_pool = spec.degree_pool;
  turbo::util::Status st = turbo::workload::WriteLubmNTriplesFile(cfg, a.data);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench gen: %s\n", st.message().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  perfbench::DatasetSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !perfbench::FindDatasetSpec(args.workload, &spec) || args.data.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench gen|oracle|run "
                 "--workload lubm-join|lubm-bulk|live-mixed --data FILE [--seed N] "
                 "[--seconds S] [--trace 0|1] [--oracle FILE] [--trace-dir DIR]\n");
    return 2;
  }
  if (args.command == "gen") return Generate(args);
  if (args.command == "oracle") return perfbench::RunOracle(args);
  if (args.command != "run") return 2;
  perfbench::Report report;
  int rc = args.workload == "live-mixed" ? perfbench::RunLiveWorkload(args, &report)
                                         : perfbench::RunQueryWorkload(args, &report);
  if (rc != 0) return rc;  // setup failed: no result line
  return report.Finish(args.trace);
}
