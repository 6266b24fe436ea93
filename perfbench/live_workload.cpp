// live-mixed: a LiveStore-backed SparqlServer (LUBM-2, one matcher thread,
// background compactor on) taking writes beside reads.
//
//   writer   open loop, 50 updates/s: INSERT DATA of a new GraduateStudent
//            with two takesCourse edges; every fourth update also DELETE
//            DATA of one base takesCourse triple. Latency runs from each
//            update's due time to its response.
//   reader   one closed-loop client of point lookups — the courses of a
//            student, or the GraduateStudents taking a course — with
//            constants drawn from base and recently inserted entities. Each
//            query text is distinct, so every read misses the plan cache.
//
// Every read is checked against the benchmark's own model of the epoch its
// X-Epoch header names (benchlib.hpp EpochModel); every update's
// inserted/deleted counts and epoch order are checked too.
#include <algorithm>
#include <fstream>
#include <random>
#include <unordered_set>

#include "harness.hpp"
#include "server/sparql_server.hpp"
#include "store/live_store.hpp"
#include "workload/lubm.hpp"

namespace perfbench {
namespace {

// A compaction plus the lazy base-index build after it costs ~0.6 s of one
// core on LUBM-2: at 100 updates/s the writer fell behind and the store
// compacted back to back.
constexpr double kUpdatesPerSecond = 50;
// Delta size (adds + tombstones) that triggers compaction. Each update adds
// 3.25 entries on average, so the store compacts about every 1.85 s of
// writes: at least five times in a 10 s run.
constexpr size_t kCompactThreshold = 300;
constexpr size_t kRecentGrads = 64;  ///< the reader draws new students from these

const std::string kUb = workload::kUbPrefix;
const std::string kTakes = "<" + kUb + "takesCourse>";

/// Base facts the reads and the update stream need, scanned from the input
/// file (not from the engine under test).
struct BaseFacts {
  std::vector<std::string> students;  ///< with at least one takesCourse edge
  std::vector<std::string> grad_courses;
  std::vector<std::pair<std::string, std::string>> takes;  ///< distinct edges
};

bool ScanBase(const std::string& path, EpochModel* model, BaseFacts* facts) {
  std::ifstream in(path);
  if (!in) return false;
  const std::string type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
  const std::string grad = "<" + kUb + "GraduateStudent>";
  std::unordered_set<std::string> courses;
  std::string line;
  while (std::getline(in, line)) {
    size_t s_end = line.find(' ');
    if (s_end == std::string::npos) continue;
    size_t p_end = line.find(' ', s_end + 1);
    if (p_end == std::string::npos) continue;
    std::string_view p(line.data() + s_end + 1, p_end - s_end - 1);
    std::string_view rest(line.data() + p_end + 1, line.size() - p_end - 1);
    if (rest.size() < 2 || rest.substr(rest.size() - 2) != " .") continue;
    std::string o(rest.substr(0, rest.size() - 2));
    std::string s = line.substr(0, s_end);
    if (p == kTakes) {
      model->AddBaseTakes(s, o);
      if (o.find("/GraduateCourse") != std::string::npos) courses.insert(o);
    } else if (p == type && o == grad) {
      model->AddBaseGrad(s);
    }
  }
  // From the model's sets: the generator writes some triples twice, and a
  // second DELETE DATA of one triple would (rightly) delete nothing.
  for (const auto& [s, cs] : model->base_courses()) {
    facts->students.push_back(s);
    for (const std::string& c : cs) facts->takes.emplace_back(s, c);
  }
  facts->grad_courses.assign(courses.begin(), courses.end());
  std::sort(facts->grad_courses.begin(), facts->grad_courses.end());
  return !facts->students.empty() && facts->grad_courses.size() >= 2;
}

/// The update stream, generated from the seed before the run.
struct UpdatePlan {
  std::vector<std::string> texts;
  std::vector<EpochModel::Batch> batches;
  std::vector<std::string> new_grads;  ///< update k inserts new_grads[k]
};

UpdatePlan PlanUpdates(const BaseFacts& facts, size_t count, uint64_t seed) {
  UpdatePlan plan;
  std::mt19937_64 rng(seed ^ 0x5eedu);
  std::vector<size_t> victims(facts.takes.size());
  for (size_t i = 0; i < victims.size(); ++i) victims[i] = i;
  std::shuffle(victims.begin(), victims.end(), rng);
  size_t next_victim = 0;
  for (size_t k = 0; k < count; ++k) {
    std::string g = "<http://perfbench.example/seed" + std::to_string(seed) + "/NewGrad" +
                    std::to_string(k) + ">";
    size_t a = rng() % facts.grad_courses.size();
    const size_t n = facts.grad_courses.size();
    size_t b = (a + 1 + rng() % (n - 1)) % n;  // distinct from a
    const std::string& c1 = facts.grad_courses[a];
    const std::string& c2 = facts.grad_courses[b];
    EpochModel::Batch batch;
    std::string text = "PREFIX ub: <" + kUb + "> ";
    if (k % 4 == 3 && next_victim < victims.size()) {
      const auto& [s, c] = facts.takes[victims[next_victim++]];
      text += "DELETE DATA { " + s + " ub:takesCourse " + c + " . } ; ";
      batch.delete_takes.emplace_back(s, c);
    }
    text += "INSERT DATA { " + g + " a ub:GraduateStudent . " + g + " ub:takesCourse " +
            c1 + " . " + g + " ub:takesCourse " + c2 + " . }";
    batch.insert_takes = {{g, c1}, {g, c2}};
    batch.insert_grads = {g};
    plan.texts.push_back(std::move(text));
    plan.batches.push_back(std::move(batch));
    plan.new_grads.push_back(g);
  }
  return plan;
}

struct UpdateLog {
  ClientRecord rec;  ///< seq = update number; due_ns = scheduled send time
  std::string body;
  int status = 0;
};

struct ReadLog {
  ClientRecord rec;  ///< kind 0 = courses of a student, 1 = grads taking a course
  std::string constant;
  std::string text;
  std::string body;
  std::string epoch;  ///< X-Epoch header
  int status = 0;
};

struct PhaseLogs {
  std::vector<UpdateLog> updates;
  std::vector<ReadLog> reads;
  std::vector<CpuMark> cpu;
  int64_t begin_ns = 0;
};

/// One measured window: the open-loop writer beside the closed-loop reader.
PhaseLogs RunPhase(uint16_t port, const UpdatePlan& plan, size_t first_update,
                   size_t last_update, const BaseFacts& facts, uint64_t seed,
                   double seconds, bool traced, std::atomic<size_t>* acked) {
  PhaseLogs out;
  CpuSampler cpu;
  out.begin_ns = NowNs();
  const int64_t deadline = out.begin_ns + static_cast<int64_t>(seconds * 1e9);
  const int64_t period = static_cast<int64_t>(1e9 / kUpdatesPerSecond);

  std::thread writer([&] {
    auto client = std::make_unique<Client>(port);
    server::HttpResponse resp;
    for (size_t k = first_update; k < last_update; ++k) {
      int64_t due = out.begin_ns + static_cast<int64_t>(k - first_update) * period;
      if (due >= deadline) break;
      int64_t now = NowNs();
      if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      UpdateLog u;
      u.rec.seq = k;
      u.rec.due_ns = due;
      u.rec.start_ns = NowNs();
      bool ok = client->Send("POST", "/update",
                             {{"Content-Type", "application/sparql-update"}},
                             plan.texts[k]);
      u.rec.sent_ns = NowNs();
      if (ok && traced) {
        ok = client->WaitFirstByte();
        u.rec.ttfb_ns = NowNs();
      }
      ok = ok && client->Read(&resp);
      u.rec.end_ns = NowNs();
      u.rec.ok = ok;
      u.status = ok ? resp.status : 0;
      u.body = resp.body;
      out.updates.push_back(std::move(u));
      if (ok && resp.status == 200) acked->store(k + 1);
      if (!ok) client = std::make_unique<Client>(port);
    }
  });

  std::thread reader([&] {
    std::mt19937_64 rng(seed * 7919 + first_update);
    auto client = std::make_unique<Client>(port);
    server::HttpResponse resp;
    uint64_t n = 0;
    while (NowNs() < deadline) {
      ReadLog l;
      l.rec.kind = static_cast<uint32_t>(rng() % 2);
      // A fresh variable name per request keeps every text distinct.
      std::string var = "?v" + std::to_string(first_update) + "_" + std::to_string(n++);
      if (l.rec.kind == 0) {
        size_t known = acked->load();
        if (known > 0 && rng() % 2 == 0) {
          size_t lo = known > kRecentGrads ? known - kRecentGrads : 0;
          l.constant = plan.new_grads[lo + rng() % (known - lo)];
        } else {
          l.constant = facts.students[rng() % facts.students.size()];
        }
        l.text = "PREFIX ub: <" + kUb + "> SELECT " + var + " WHERE { " + l.constant +
                 " ub:takesCourse " + var + " . }";
      } else {
        l.constant = facts.grad_courses[rng() % facts.grad_courses.size()];
        l.text = "PREFIX ub: <" + kUb + "> SELECT " + var + " WHERE { " + var +
                 " a ub:GraduateStudent . " + var + " ub:takesCourse " + l.constant +
                 " . }";
      }
      l.rec.start_ns = l.rec.due_ns = NowNs();
      bool ok = client->Send("GET", "/sparql?query=" + UrlEncode(l.text));
      l.rec.sent_ns = NowNs();
      if (ok && traced) {
        ok = client->WaitFirstByte();
        l.rec.ttfb_ns = NowNs();
      }
      ok = ok && client->Read(&resp);
      l.rec.end_ns = NowNs();
      l.rec.ok = ok;
      l.status = ok ? resp.status : 0;
      if (ok) {
        l.body = std::move(resp.body);
        auto it = resp.headers.find("x-epoch");
        if (it != resp.headers.end()) l.epoch = it->second;
      }
      out.reads.push_back(std::move(l));
      if (!ok) client = std::make_unique<Client>(port);
    }
  });
  reader.join();
  // The reader's window: an update stalled past the deadline does not
  // stretch the read rate's denominator.
  out.cpu = cpu.Stop();
  writer.join();
  return out;
}

/// Checks updates (status, inserted/deleted counts, epoch order) and feeds
/// them to the model; then checks every read against the model at its
/// epoch. Returns the read latencies of the reads that passed.
struct PhaseCheck {
  std::vector<TimedSample> reads;
  std::vector<double> update_ms, late_ms;
};

PhaseCheck CheckPhase(PhaseLogs* logs, const UpdatePlan& plan, EpochModel* model,
                      Report* report) {
  PhaseCheck out;
  for (UpdateLog& u : logs->updates) {
    Json doc;
    const EpochModel::Batch& b = plan.batches[u.rec.seq];
    bool ok = u.rec.ok && u.status == 200 && JsonReader(u.body).Parse(&doc);
    const Json* epoch = ok ? doc.Get("epoch") : nullptr;
    const Json* ins = ok ? doc.Get("inserted") : nullptr;
    const Json* del = ok ? doc.Get("deleted") : nullptr;
    // An applied batch enters the model even when its counts are wrong (that
    // is one failure, not a failure of every later read that sees it).
    bool recorded = epoch && model->Record(static_cast<uint64_t>(epoch->num), b);
    ok = recorded && ins && del &&
         ins->num == static_cast<double>(b.insert_takes.size() + b.insert_grads.size()) &&
         del->num == static_cast<double>(b.delete_takes.size());
    u.rec.ok = ok;
    report->Attempt(ok, "update " + std::to_string(u.rec.seq) + ": " + u.body);
    if (ok) {
      out.update_ms.push_back(static_cast<double>(u.rec.end_ns - u.rec.due_ns) / 1e6);
      out.late_ms.push_back(static_cast<double>(u.rec.start_ns - u.rec.due_ns) / 1e6);
    }
  }
  for (ReadLog& l : logs->reads) {
    Rows rows;
    std::string why = "status " + std::to_string(l.status);
    bool ok = l.rec.ok && l.status == 200 && !l.epoch.empty() &&
              ParseJsonBody(l.body, &rows, &why);
    if (ok) {
      uint64_t epoch = std::strtoull(l.epoch.c_str(), nullptr, 10);
      std::set<std::string> want = l.rec.kind == 0
                                       ? model->CoursesOf(l.constant, epoch)
                                       : model->GradsTaking(l.constant, epoch);
      std::set<std::string> got;
      for (const auto& r : rows)
        if (r.size() == 1) got.insert(r[0]);
      ok = got.size() == rows.size() && got == want;
      if (!ok)
        why = "epoch " + l.epoch + ": " + std::to_string(rows.size()) +
              " rows, model has " + std::to_string(want.size());
    }
    l.rec.ok = ok;
    report->Attempt(ok, "read " + l.constant + ": " + why);
    if (ok) out.reads.push_back({l.rec.end_ns, l.rec.ms()});
  }
  return out;
}

}  // namespace

int RunLiveWorkload(const Args& args, Report* report) {
  // ---- Set-up, repeated: file → load (fused graph) → LiveStore → Start(). ----
  DatasetSpec spec;
  FindDatasetSpec(args.workload, &spec);
  store::LiveStore::Config cfg;
  cfg.engine.engine_options.num_threads = 1;
  cfg.compact_threshold = kCompactThreshold;
  std::unique_ptr<store::LiveStore> live;
  auto release = [&] { live.reset(); };
  auto build = [&](rdf::LoadResult loaded) {
    live = std::make_unique<store::LiveStore>(std::move(loaded.dataset), cfg,
                                              std::move(loaded.graph));
    return std::make_unique<server::SparqlServer>(live.get(), server::ServerConfig{});
  };
  std::unique_ptr<server::SparqlServer> srv =
      TimedSetup(args.data, spec.setups, release, build, report);
  if (!srv) return 1;

  EpochModel model;
  BaseFacts facts;
  if (!ScanBase(args.data, &model, &facts)) {
    std::fprintf(stderr, "perfbench: input has no students/graduate courses\n");
    return 1;
  }
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  const size_t warm_updates = static_cast<size_t>(kWarmupSeconds * kUpdatesPerSecond) + 1;
  const size_t per_phase = static_cast<size_t>(window * kUpdatesPerSecond) + 1;
  UpdatePlan plan = PlanUpdates(facts, warm_updates + 2 * per_phase, args.seed);
  std::atomic<size_t> acked{0};

  PhaseLogs warm = RunPhase(srv->port(), plan, 0, warm_updates, facts, args.seed,
                            kWarmupSeconds, /*traced=*/false, &acked);
  CheckPhase(&warm, plan, &model, report);
  const size_t plain_end = warm_updates + per_phase;
  PhaseLogs plain = RunPhase(srv->port(), plan, warm_updates, plain_end, facts, args.seed,
                             window, /*traced=*/false, &acked);
  PhaseCheck plain_check = CheckPhase(&plain, plan, &model, report);
  QuietSummary reads = SummarizeQuiet(plain_check.reads, plain.cpu, kMaxStealShare);
  ReportReadLatency(reads, report);
  Percentiles upd = Summarize(plain_check.update_ms);
  std::printf("updates: p50 %.3f ms, p%.1f %.3f ms (n=%zu, due time to response)\n",
              upd.p50, upd.tail_q * 100, upd.tail, upd.n);
  if (!args.trace) {
    std::printf("compactions during the run: %llu\n",
                static_cast<unsigned long long>(live->stats().compactions));
    return 0;
  }

  // ---- Traced window, then the in-process replay of its log. ----
  server::ServerStats before = srv->stats();
  PhaseLogs traced = RunPhase(srv->port(), plan, plain_end, plain_end + per_phase, facts,
                              args.seed, window, /*traced=*/true, &acked);
  PhaseCheck traced_check = CheckPhase(&traced, plan, &model, report);
  server::ServerStats after = srv->stats();
  srv->Stop();
  store::LiveStore::Stats live_stats = live->stats();
  QuietSummary traced_reads = SummarizeQuiet(traced_check.reads, traced.cpu, kMaxStealShare);
  Percentiles traced_upd = Summarize(traced_check.update_ms);
  Percentiles late = Summarize(traced_check.late_ms);
  std::printf(
      "traced updates: p50 %.3f ms, p%.1f %.3f ms (n=%zu); "
      "writer lateness p%.1f %.3f ms\n",
      traced_upd.p50, traced_upd.tail_q * 100, traced_upd.tail, traced_upd.n,
      late.tail_q * 100, late.tail);

  Tracer tracer;
  double ttfb_ms = 0;
  for (const ReadLog& l : traced.reads)
    ttfb_ms += static_cast<double>(l.rec.ttfb_ns - l.rec.start_ns) / 1e6;
  if (!traced.reads.empty()) ttfb_ms /= static_cast<double>(traced.reads.size());

  // The replay store starts from the same file with the background
  // compactor off: the benchmark compacts at the same threshold itself, so
  // each pause is a span.
  store::LiveStore::Config replay_cfg = cfg;
  replay_cfg.compact_threshold = 0;
  auto loaded = LoadServingInput(args.data);
  if (!loaded.ok()) {
    report->Fail("replay: load failed: " + loaded.message());
    return 0;
  }
  store::LiveStore replay_store(std::move(loaded.value().dataset), replay_cfg,
                                std::move(loaded.value().graph));
  struct Op {
    int64_t start_ns;
    const UpdateLog* update;
    const ReadLog* read;
  };
  // Every update replays (so every compaction does); reads are thinned to
  // an even sample of about kReplayReads, keeping the log's order.
  constexpr size_t kReplayReads = 2000;
  const size_t stride = std::max<size_t>(1, traced.reads.size() / kReplayReads);
  std::vector<Op> ops;
  for (const UpdateLog& u : traced.updates) ops.push_back({u.rec.start_ns, &u, nullptr});
  for (size_t i = 0; i < traced.reads.size(); i += stride)
    if (traced.reads[i].rec.ok)
      ops.push_back({traced.reads[i].rec.start_ns, nullptr, &traced.reads[i]});
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.start_ns < b.start_ns; });

  Replayer replayer(&tracer);
  if (!replayer.sink_ok()) {
    report->Fail("replay: cannot open a loopback socket");
    return 0;
  }
  const uint32_t n_update = tracer.NameId("store.update");
  const uint32_t n_compact = tracer.NameId("store.compact");
  std::vector<double> update_ms, first_update_ms, compact_ms;
  bool after_compaction = true;  // the first update after startup builds the base index
  uint64_t delta_reads = 0, delta_peak = 0;
  double http_read_ms = 0;
  uint64_t id = 0;
  const int64_t replay_deadline = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  auto prepare = [&](const std::string& text) { return replay_store.Prepare(text); };
  for (const Op& op : ops) {
    if (NowNs() >= replay_deadline) break;
    ++id;
    AddClientSpans(op.update ? op.update->rec : op.read->rec, id, &tracer);
    if (op.update) {
      uint32_t h = tracer.Begin(n_update, 0, id);
      auto res = replay_store.Update(plan.texts[op.update->rec.seq]);
      tracer.End(h);
      const Span& s = tracer.spans()[h - 1];
      double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      (after_compaction ? first_update_ms : update_ms).push_back(ms);
      after_compaction = false;
      report->Attempt(res.ok(), "replayed update failed");
      if (!res.ok()) continue;
      uint64_t delta = res.value().delta_adds + res.value().tombstones;
      delta_peak = std::max(delta_peak, delta);
      if (delta >= kCompactThreshold) {
        h = tracer.Begin(n_compact, 0, id);
        util::Status st = replay_store.Compact();
        tracer.End(h);
        const Span& c = tracer.spans()[h - 1];
        compact_ms.push_back(static_cast<double>(c.end_ns - c.start_ns) / 1e6);
        report->Attempt(st.ok(), "replayed compaction failed");
        after_compaction = true;
      }
      continue;
    }
    std::shared_ptr<const store::LiveStore::Snapshot> snap = replay_store.snapshot();
    if (snap->has_delta()) ++delta_reads;
    auto open = [&snap](const sparql::PreparedQuery& p, const sparql::ExecOptions& o) {
      return store::LiveStore::OpenAt(snap, p, o);
    };
    Replayer::Query q{id, &op.read->text, "json", sparql::kNoBudget, 1};
    bool ok = replayer.Run(q, prepare, open, snap->dict(),
                           snap->has_delta() ? nullptr : snap->engine->turbo_solver());
    report->Attempt(ok, "replayed read failed");
    http_read_ms += op.read->rec.ms();
  }
  const ReplayTotals& tot = replayer.totals();
  ReportReplay(tot, report);

  double n_reads = tot.requests ? static_cast<double>(tot.requests) : 1;
  uint64_t hits = after.plan_cache_hits - before.plan_cache_hits;
  uint64_t lookups = hits + after.plan_cache_misses - before.plan_cache_misses;
  std::shared_ptr<const store::LiveStore::Snapshot> snap = live->snapshot();
  const graph::DataGraph* g = snap->engine->data_graph();
  graph::DataGraph::MemoryBreakdown mem =
      g ? g->MemoryUsage() : graph::DataGraph::MemoryBreakdown{};
  report->Layer("graph.adjacency_bytes", static_cast<double>(mem.adjacency_total()));
  report->Layer("graph.total_bytes", static_cast<double>(mem.total()));
  report->Layer("server.ttfb_ms", ttfb_ms);
  report->Layer("server.plan_cache_hit_ratio",
                lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0);
  report->Layer("server.unattributed_ms", (http_read_ms - tot.request_ms) / n_reads);
  report->Layer("server.rejected_503", static_cast<double>(after.rejected_overload));
  report->Layer("server.bad_requests", static_cast<double>(after.bad_requests));
  report->Layer("store.update_ms", Median(update_ms));
  report->Layer("store.first_update_ms", Median(first_update_ms));
  report->Layer("store.compact_ms", Median(compact_ms));
  report->Layer("store.compactions", static_cast<double>(live_stats.compactions));
  report->Layer("store.delta_read_ratio", static_cast<double>(delta_reads) / n_reads);
  report->Layer("store.delta_peak", static_cast<double>(delta_peak));
  report->Layer("update_p50_ms", traced_upd.p50);
  report->Layer("update_p99_ms", traced_upd.tail);
  report->Layer("harness.late_p99_ms", late.tail);
  report->Layer("harness.samples", static_cast<double>(traced_reads.lat.n));
  report->Layer("trace.overhead_ratio",
                reads.lat.mean > 0 ? traced_reads.lat.mean / reads.lat.mean - 1 : 0);
  std::printf("compactions during the HTTP part: %llu; replay compactions: %zu\n",
              static_cast<unsigned long long>(live_stats.compactions), compact_ms.size());
  WriteTrace(tracer, args.trace_dir, args.workload, tot.requests);
  return 0;
}

}  // namespace perfbench
