// Live-update benchmark for the store subsystem: measures the three costs
// the delta design trades between — update ingestion throughput, the read
// overhead of the delta overlay (vs. the delta-empty fast path, which routes
// straight to the engine's native solver), and the synchronous compaction
// pause that folds the delta back into the base.
//
// Phases per LUBM scale:
//   1. read-baseline/<q>  — queries with the delta empty (native solver).
//   2. updates            — batches of INSERT DATA (new entities through the
//                           term overlay) plus DELETE DATA of base triples
//                           (tombstones), timed end to end.
//   3. read-delta/<q>     — the same queries with the delta populated
//                           (delta-view index join; scan = base − tombstones ∪ delta).
//   4. compact            — synchronous Compact(): pause ms + resulting base.
//   5. read-compacted/<q> — queries again; results must match read-delta.
//
// Rows, epochs, delta sizes, tombstone counts, and base triple counts are
// machine-independent; the nightly same-runner gate asserts them exactly
// while ms stays report-only across machines (compare_results.py).
//
// Env: LUBM_SCALES (default 1), UPDATE_BATCHES (default 64), BENCH_REPS,
// BENCH_JSON.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "store/live_store.hpp"
#include "util/timer.hpp"
#include "workload/lubm.hpp"

using namespace turbo;

namespace {

constexpr const char* kUb =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> ";

struct ReadQuery {
  const char* name;
  std::string text;
};

std::vector<ReadQuery> ReadQueries() {
  return {
      {"grad-students", std::string(kUb) +
                            "SELECT ?x WHERE { ?x a ub:GraduateStudent . }"},
      {"grad-courses",
       std::string(kUb) +
           "SELECT ?x ?y WHERE { ?x a ub:GraduateStudent . "
           "?x ub:takesCourse ?y . }"},
      {"suborg-pairs",
       std::string(kUb) +
           "SELECT ?x ?y WHERE { ?x ub:subOrganizationOf ?y . }"},
      {"live-edges", "SELECT ?x ?y WHERE { ?x <http://bench/follows> ?y . }"},
  };
}

struct Timed {
  double ms = 0;
  size_t rows = 0;
};

Timed TimeRead(const store::LiveStore& store, const std::string& query, int reps) {
  Timed result;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    util::WallTimer t;
    auto cursor = store.Open(query, {});
    size_t rows = 0;
    if (cursor.ok()) {
      sparql::Row row;
      while (cursor.value().Next(&row)) ++rows;
    }
    double ms = t.ElapsedMillis();
    const util::Status& st = cursor.ok() ? cursor.value().status() : cursor.status();
    if (!st.ok()) {
      std::fprintf(stderr, "query error: %s\n", st.message().c_str());
      return result;
    }
    result.rows = rows;
    times.push_back(ms);
    if (ms > 2000 && i == 0) break;
  }
  std::sort(times.begin(), times.end());
  if (times.size() >= 3) {
    double sum = 0;
    for (size_t i = 1; i + 1 < times.size(); ++i) sum += times[i];
    result.ms = sum / (times.size() - 2);
  } else {
    double sum = 0;
    for (double t : times) sum += t;
    result.ms = sum / times.size();
  }
  return result;
}

void RunReads(const std::string& tag, const store::LiveStore& store, int reps,
              bench::BenchReport* report) {
  bench::PrintRow("query", {"ms", "rows"});
  for (const ReadQuery& q : ReadQueries()) {
    Timed m = TimeRead(store, q.text, reps);
    bench::PrintRow(q.name, {bench::Ms(m.ms), bench::Num(m.rows)});
    bench::BenchResult res;
    res.name = tag + "/" + q.name;
    res.metrics["ms"] = m.ms;
    res.metrics["rows"] = static_cast<double>(m.rows);
    report->results.push_back(std::move(res));
  }
}

/// Collects IRI→IRI base triples to retract (tombstone fodder) by querying
/// the store itself, so the delete text is scale-derived, not hand-listed.
std::vector<std::string> CollectBaseDeletes(const store::LiveStore& store,
                                            size_t want) {
  std::vector<std::string> out;
  auto snap = store.snapshot();
  auto cursor = store.Open(
      std::string(kUb) + "SELECT ?x ?y WHERE { ?x ub:subOrganizationOf ?y . }", {});
  if (!cursor.ok()) return out;
  sparql::Row row;
  const auto& dict = snap->dict();
  const char* pred = "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#subOrganizationOf>";
  while (out.size() < want && cursor.value().Next(&row)) {
    const rdf::Term& s = dict.term(row[0]);
    const rdf::Term& o = dict.term(row[1]);
    out.push_back("<" + s.lexical + "> " + pred + " <" + o.lexical + "> .");
  }
  return out;
}

}  // namespace

int main() {
  auto scales = bench::ScalesFromEnv("LUBM_SCALES", {1});
  const int reps = bench::RepsFromEnv();
  size_t batches = 64;
  if (const char* env = std::getenv("UPDATE_BATCHES"))
    batches = std::strtoull(env, nullptr, 10);

  bench::BenchReport report;
  report.bench = "bench_updates";
  report.machine = bench::MachineTag();
  report.config["reps"] = std::to_string(reps);
  report.config["batches"] = std::to_string(batches);

  for (uint32_t n : scales) {
    const std::string tag = "LUBM" + std::to_string(n);
    workload::LubmConfig cfg;
    cfg.num_universities = n;
    util::WallTimer prep;
    rdf::Dataset ds = workload::GenerateLubmClosed(cfg);
    std::printf("\n[%s: %zu triples, prep %.1fs]\n", tag.c_str(), ds.size(),
                prep.ElapsedSeconds());
    store::LiveStore store(std::move(ds));

    bench::PrintHeader(tag + ": reads, delta empty (native solver)");
    RunReads(tag + "/read-baseline", store, reps, &report);

    // Tombstone fodder: one base retraction per batch.
    std::vector<std::string> deletes = CollectBaseDeletes(store, batches);

    bench::PrintHeader(tag + ": update ingestion");
    size_t inserted = 0, deleted = 0;
    util::WallTimer upd;
    for (size_t b = 0; b < batches; ++b) {
      // 8 inserts per batch: fresh entities through the term overlay, chained
      // so the live-edges query has join work to do.
      std::string text = "INSERT DATA { ";
      for (int i = 0; i < 8; ++i) {
        size_t id = b * 8 + i;
        text += "<http://bench/u" + std::to_string(id) + "> <http://bench/follows> " +
                "<http://bench/u" + std::to_string(id / 2) + "> . ";
      }
      text += "}";
      if (b < deletes.size()) text += " ; DELETE DATA { " + deletes[b] + " }";
      auto result = store.Update(text);
      if (!result.ok()) {
        std::fprintf(stderr, "update error: %s\n", result.message().c_str());
        return 1;
      }
      inserted += result.value().inserted;
      deleted += result.value().deleted;
    }
    double upd_ms = upd.ElapsedMillis();
    store::LiveStore::Stats stats = store.stats();
    double per_sec = upd_ms > 0 ? 1000.0 * static_cast<double>(batches) / upd_ms : 0;
    bench::PrintRow("batches", {bench::Num(batches), "", ""});
    bench::PrintRow("total-ms", {bench::Ms(upd_ms)});
    bench::PrintRow("updates/sec", {bench::Ms(per_sec)});
    bench::PrintRow("delta", {bench::Num(stats.delta_adds), bench::Num(stats.tombstones)});
    {
      bench::BenchResult res;
      res.name = tag + "/updates";
      res.metrics["ms"] = upd_ms;
      res.metrics["updates_per_sec"] = per_sec;
      res.metrics["batches"] = static_cast<double>(batches);
      res.metrics["triples_inserted"] = static_cast<double>(inserted);
      res.metrics["triples_deleted"] = static_cast<double>(deleted);
      res.metrics["epoch"] = static_cast<double>(stats.epoch);
      res.metrics["delta_adds"] = static_cast<double>(stats.delta_adds);
      res.metrics["tombstones"] = static_cast<double>(stats.tombstones);
      report.results.push_back(std::move(res));
    }

    bench::PrintHeader(tag + ": reads, delta populated (delta-view index join)");
    RunReads(tag + "/read-delta", store, reps, &report);

    bench::PrintHeader(tag + ": compaction");
    util::WallTimer pause;
    if (auto st = store.Compact(); !st.ok()) {
      std::fprintf(stderr, "compact error: %s\n", st.message().c_str());
      return 1;
    }
    double pause_ms = pause.ElapsedMillis();
    stats = store.stats();
    bench::PrintRow("pause-ms", {bench::Ms(pause_ms)});
    bench::PrintRow("base-triples", {bench::Num(stats.base_triples)});
    {
      bench::BenchResult res;
      res.name = tag + "/compact";
      res.metrics["ms"] = pause_ms;
      res.metrics["base_triples"] = static_cast<double>(stats.base_triples);
      res.metrics["compactions"] = static_cast<double>(stats.compactions);
      res.metrics["delta_adds"] = static_cast<double>(stats.delta_adds);
      res.metrics["tombstones"] = static_cast<double>(stats.tombstones);
      report.results.push_back(std::move(res));
    }

    bench::PrintHeader(tag + ": reads, post-compaction (native solver)");
    RunReads(tag + "/read-compacted", store, reps, &report);
  }

  bench::MaybeWriteJson(report);
  return 0;
}
