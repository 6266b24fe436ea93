// lubm-join and lubm-bulk: a read-only SparqlServer over one QueryEngine,
// driven by one closed-loop keep-alive client, with answers checked against
// a reference computed by SortMergeBgpSolver (the matcher is never its own
// oracle). One client, because a streamed lubm-bulk request already keeps
// three threads busy (matcher, encoder, client parse): with a second client
// the tail was set by how the scheduler packed six threads onto four vCPUs.
//
//   lubm-join  LUBM-16, degree_pool 16, TurboHOM++ at 4 matcher threads,
//              1 client; Q2, Q9 and COUNT(*) forms of Q2, Q8, Q9 in TSV.
//   lubm-bulk  LUBM-2, default degree pool, 1 matcher thread, 1 client;
//              Q6 and Q14 in the endpoint's default streamed JSON, capped at
//              10^4 delivered rows each.
#include <algorithm>
#include <fstream>
#include <random>
#include <unordered_set>

#include "harness.hpp"
#include "server/sparql_server.hpp"
#include "workload/lubm.hpp"

namespace perfbench {
namespace {

struct MixEntry {
  std::string name;
  std::string text;
  std::string format;  ///< tsv | json
  uint64_t limit = sparql::kNoBudget;
  bool count_form = false;
  std::string target{};  ///< request path, built from the fields above
};

struct Expected {
  RowDigest digest;                       ///< the full (unlimited) answer
  std::unordered_set<uint64_t> members;   ///< row hashes, for limited entries
  uint64_t rows = 0;                      ///< rows a response must deliver
};

struct WorkloadShape {
  std::vector<MixEntry> mix;
  uint32_t engine_threads = 1;
};

std::string CountForm(const std::string& q) {
  size_t sel = q.find("SELECT ");
  size_t where = q.find(" WHERE");
  return q.substr(0, sel) + "SELECT (COUNT(*) AS ?n)" + q.substr(where);
}

WorkloadShape Shape(const std::string& workload) {
  std::vector<std::string> q = workload::LubmQueries();
  WorkloadShape s;
  if (workload == "lubm-join") {
    s.engine_threads = 4;
    s.mix = {{"Q2", q[1], "tsv"},
             {"Q9", q[8], "tsv"},
             {"count(Q2)", CountForm(q[1]), "tsv", sparql::kNoBudget, true},
             {"count(Q8)", CountForm(q[7]), "tsv", sparql::kNoBudget, true},
             {"count(Q9)", CountForm(q[8]), "tsv", sparql::kNoBudget, true}};
  } else {
    s.engine_threads = 1;
    s.mix = {{"Q6", q[5], "json", 10000}, {"Q14", q[13], "json", 10000}};
  }
  for (MixEntry& e : s.mix) {
    e.target = "/sparql?query=" + UrlEncode(e.text);
    if (e.format == "tsv") e.target += "&format=tsv";
    if (e.limit != sparql::kNoBudget) e.target += "&limit=" + std::to_string(e.limit);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Oracle file: "entry <i> <rows> <sum>" lines, then "member <i> <hash>" for
// entries whose responses are limited (membership is all a prefix can be
// checked for).
// ---------------------------------------------------------------------------

bool ReadOracle(const std::string& path, const std::vector<MixEntry>& mix,
                std::vector<Expected>* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->assign(mix.size(), {});
  std::vector<bool> seen(mix.size(), false);
  std::string kind;
  size_t i = 0;
  while (in >> kind >> i) {
    if (i >= mix.size()) return false;
    if (kind == "entry") {
      in >> (*out)[i].digest.rows >> (*out)[i].digest.sum;
      seen[i] = true;
    } else if (kind == "member") {
      uint64_t h = 0;
      in >> h;
      (*out)[i].members.insert(h);
    } else {
      return false;
    }
  }
  for (size_t k = 0; k < mix.size(); ++k) {
    if (!seen[k]) return false;
    (*out)[k].rows = std::min(mix[k].limit, (*out)[k].digest.rows);
  }
  return true;
}

/// Checks one complete response body against the reference.
bool CheckFullBody(const MixEntry& e, const Expected& exp, const std::string& body,
                   std::string* why) {
  Rows rows;
  bool parsed = e.format == "tsv" ? ParseTsvBody(body, &rows, why)
                                  : ParseJsonBody(body, &rows, why);
  if (!parsed) return false;
  if (rows.size() != exp.rows) {
    *why = e.name + ": " + std::to_string(rows.size()) + " rows, expected " +
           std::to_string(exp.rows);
    return false;
  }
  if (e.limit == sparql::kNoBudget) {
    RowDigest d;
    for (const auto& r : rows) d.Add(RowHash(r));
    if (!(d == exp.digest)) {
      *why = e.name + ": row hash differs from the reference";
      return false;
    }
    return true;
  }
  std::unordered_set<uint64_t> distinct;
  for (const auto& r : rows) {
    uint64_t h = RowHash(r);
    if (!exp.members.count(h) || !distinct.insert(h).second) {
      *why = e.name + ": row outside the reference answer or repeated";
      return false;
    }
  }
  return true;
}

/// The timed-window check: row count (and, for one-row COUNT answers, the
/// value itself).
bool CheckTimedBody(const MixEntry& e, const Expected& exp, const std::string& body) {
  if (e.count_form) {
    std::string why;
    return CheckFullBody(e, exp, body, &why);
  }
  uint64_t n = 0;
  bool complete = e.format == "tsv" ? CountTsvRows(body, &n) : CountJsonRows(body, &n);
  return complete && n == exp.rows;
}

struct LoopResult {
  std::vector<ClientRecord> records;
  std::vector<CpuMark> cpu;
};

/// Closed loop on one keep-alive connection: the next request goes out when
/// the previous one completes, walking the seed-shuffled order.
LoopResult RunClosedLoop(uint16_t port, const WorkloadShape& shape,
                         const std::vector<Expected>& exp,
                         const std::vector<size_t>& order, double seconds, bool traced) {
  LoopResult out;
  CpuSampler cpu;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  auto client = std::make_unique<Client>(port);
  server::HttpResponse resp;
  for (size_t i = 0; NowNs() < deadline; ++i) {
    size_t qi = order[i % order.size()];
    ClientRecord r;
    r.kind = static_cast<uint32_t>(qi);
    r.start_ns = r.due_ns = NowNs();
    bool ok = client->Send("GET", shape.mix[qi].target);
    r.sent_ns = NowNs();
    if (ok && traced) {
      ok = client->WaitFirstByte();
      r.ttfb_ns = NowNs();
    }
    ok = ok && client->Read(&resp);
    r.end_ns = NowNs();
    r.ok = ok && resp.status == 200 && CheckTimedBody(shape.mix[qi], exp[qi], resp.body);
    out.records.push_back(r);
    if (!ok) client = std::make_unique<Client>(port);  // dropped: reconnect
  }
  out.cpu = cpu.Stop();
  return out;
}

QuietSummary SummarizeLoop(const LoopResult& loop, const std::vector<MixEntry>& mix,
                           Report* report) {
  std::vector<TimedSample> samples;
  for (const ClientRecord& r : loop.records) {
    report->Attempt(r.ok, mix[r.kind].name + ": timed response failed its check");
    if (r.ok) samples.push_back({r.end_ns, r.ms()});
  }
  return SummarizeQuiet(samples, loop.cpu, kMaxStealShare);
}

}  // namespace

int RunOracle(const Args& args) {
  WorkloadShape shape = Shape(args.workload);
  rdf::LoadOptions lo;
  auto loaded = rdf::LoadNTriplesFile(args.data, lo);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench oracle: %s\n", loaded.message().c_str());
    return 1;
  }
  sparql::QueryEngine::Config cfg;
  cfg.solver = sparql::QueryEngine::SolverKind::kSortMerge;
  sparql::QueryEngine ref(std::move(loaded.value().dataset), cfg);
  std::ofstream out(args.oracle);
  for (size_t i = 0; i < shape.mix.size(); ++i) {
    auto cursor = ref.Open(shape.mix[i].text);
    if (!cursor.ok()) {
      std::fprintf(stderr, "perfbench oracle: %s: %s\n", shape.mix[i].name.c_str(),
                   cursor.message().c_str());
      return 1;
    }
    sparql::Cursor& cur = cursor.value();
    RowDigest d;
    std::vector<uint64_t> hashes;
    sparql::Row row;
    while (cur.Next(&row)) {
      uint64_t h = RowHash(CanonicalRow(row, cur.var_names().size(), ref.dict(),
                                        cur.local_vocab().get()));
      d.Add(h);
      if (shape.mix[i].limit != sparql::kNoBudget) hashes.push_back(h);
    }
    if (!cur.status().ok()) {
      std::fprintf(stderr, "perfbench oracle: %s: %s\n", shape.mix[i].name.c_str(),
                   cur.status().message().c_str());
      return 1;
    }
    out << "entry " << i << " " << d.rows << " " << d.sum << "\n";
    for (uint64_t h : hashes) out << "member " << i << " " << h << "\n";
  }
  out.flush();
  return out.good() ? 0 : 1;
}

int RunQueryWorkload(const Args& args, Report* report) {
  WorkloadShape shape = Shape(args.workload);
  std::vector<Expected> exp;
  if (!ReadOracle(args.oracle, shape.mix, &exp)) {
    std::fprintf(stderr, "perfbench: cannot read reference answers from %s\n",
                 args.oracle.c_str());
    return 1;
  }

  // ---- Set-up, repeated: file → load (fused graph) → engine → Start(). ----
  DatasetSpec spec;
  FindDatasetSpec(args.workload, &spec);
  std::unique_ptr<sparql::QueryEngine> engine;
  auto release = [&] { engine.reset(); };
  auto build = [&](rdf::LoadResult loaded) {
    sparql::QueryEngine::Config cfg;
    cfg.engine_options.num_threads = shape.engine_threads;
    engine = std::make_unique<sparql::QueryEngine>(std::move(loaded.dataset), cfg,
                                                   std::move(loaded.graph));
    return std::make_unique<server::SparqlServer>(engine.get(), server::ServerConfig{});
  };
  std::unique_ptr<server::SparqlServer> srv =
      TimedSetup(args.data, spec.setups, release, build, report);
  if (!srv) return 1;
  const uint16_t port = srv->port();

  // ---- Every distinct query's full body, outside the timed window. ----
  for (size_t i = 0; i < shape.mix.size(); ++i) {
    Client c(port);
    server::HttpResponse resp;
    std::string why = "request failed";
    bool ok = c.Send("GET", shape.mix[i].target) && c.Read(&resp) && resp.status == 200 &&
              CheckFullBody(shape.mix[i], exp[i], resp.body, &why);
    report->Attempt(ok, shape.mix[i].name + " full body: " + why);
  }

  std::vector<size_t> order(shape.mix.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed);
  std::shuffle(order.begin(), order.end(), rng);

  // ---- Warm-up, then the timed window(s). ----
  SummarizeLoop(RunClosedLoop(port, shape, exp, order, kWarmupSeconds, false), shape.mix,
                report);
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult plain = RunClosedLoop(port, shape, exp, order, window, /*traced=*/false);
  QuietSummary plain_sum = SummarizeLoop(plain, shape.mix, report);
  ReportReadLatency(plain_sum, report);
  if (!args.trace) return 0;

  server::ServerStats before = srv->stats();
  LoopResult traced = RunClosedLoop(port, shape, exp, order, window, /*traced=*/true);
  QuietSummary traced_sum = SummarizeLoop(traced, shape.mix, report);
  server::ServerStats after = srv->stats();
  srv->Stop();

  Tracer tracer;
  double ttfb_ms = 0;
  for (const ClientRecord& r : traced.records)
    ttfb_ms += static_cast<double>(r.ttfb_ns - r.start_ns) / 1e6;
  if (!traced.records.empty()) ttfb_ms /= static_cast<double>(traced.records.size());
  uint64_t hits = after.plan_cache_hits - before.plan_cache_hits;
  uint64_t lookups = hits + after.plan_cache_misses - before.plan_cache_misses;

  // ---- In-process replay of the traced request log. ----
  std::unordered_map<std::string, sparql::PreparedQuery> plans;
  for (const MixEntry& e : shape.mix) {  // the endpoint's plan cache is warm too
    auto p = engine->Prepare(e.text);
    if (p.ok()) plans.emplace(e.text, p.value());
  }
  Replayer replayer(&tracer);
  if (!replayer.sink_ok()) {
    report->Fail("replay: cannot open a loopback socket");
    return 0;
  }
  auto prepare = [&](const std::string& text) -> util::Result<sparql::PreparedQuery> {
    auto it = plans.find(text);
    if (it != plans.end()) return it->second;
    return engine->Prepare(text);
  };
  auto open = [&](const sparql::PreparedQuery& p, const sparql::ExecOptions& o) {
    return engine->Open(p, o);
  };
  const int64_t replay_deadline = NowNs() + static_cast<int64_t>(window * 1e9);
  double http_ms = 0;
  for (size_t i = 0; i < traced.records.size(); ++i) {
    const ClientRecord& r = traced.records[i];
    AddClientSpans(r, i + 1, &tracer);
    if (!r.ok || NowNs() >= replay_deadline || replayer.totals().requests >= 300)
      continue;
    const MixEntry& e = shape.mix[r.kind];
    Replayer::Query q{i + 1, &e.text, e.format, e.limit, shape.engine_threads};
    bool ok = replayer.Run(q, prepare, open, engine->dict(), engine->turbo_solver());
    report->Attempt(ok, e.name + ": in-process replay failed");
    http_ms += r.ms();
  }
  const ReplayTotals& tot = replayer.totals();
  ReportReplay(tot, report);

  const graph::DataGraph* g = engine->data_graph();
  graph::DataGraph::MemoryBreakdown mem =
      g ? g->MemoryUsage() : graph::DataGraph::MemoryBreakdown{};
  double n_replayed = tot.requests ? static_cast<double>(tot.requests) : 1;
  report->Layer("graph.adjacency_bytes", static_cast<double>(mem.adjacency_total()));
  report->Layer("graph.total_bytes", static_cast<double>(mem.total()));
  report->Layer("server.ttfb_ms", ttfb_ms);
  report->Layer("server.plan_cache_hit_ratio",
                lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0);
  report->Layer("server.unattributed_ms", (http_ms - tot.request_ms) / n_replayed);
  report->Layer("server.rejected_503", static_cast<double>(after.rejected_overload));
  report->Layer("server.bad_requests", static_cast<double>(after.bad_requests));
  report->Layer("harness.samples", static_cast<double>(traced_sum.lat.n));
  const double plain_mean = plain_sum.lat.mean;
  report->Layer("trace.overhead_ratio",
                plain_mean > 0 ? traced_sum.lat.mean / plain_mean - 1 : 0);
  WriteTrace(tracer, args.trace_dir, args.workload, tot.requests);
  return 0;
}

}  // namespace perfbench
