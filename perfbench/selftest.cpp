// Unit checks for the benchmark's own helpers (benchlib.hpp): percentile
// selection, the order-independent row hash, the live-store epoch model,
// span self time, and the JSON reader. run.py runs this before every
// benchmark run; a failure stops the run before it measures anything.
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what);
  }
}

void TestPercentiles() {
  Check(NearestRankIndex(1, 0.5) == 0, "median of one sample");
  Check(NearestRankIndex(10, 0.5) == 4, "nearest-rank median of ten");
  Check(NearestRankIndex(100, 0.99) == 98, "p99 of 100 is rank 99");
  // p99 needs ten samples beyond it: 1000 samples allow it exactly.
  Check(TailQuantile(1000) == 0.99, "p99 supported at n=1000");
  Check(1000 - 1 - NearestRankIndex(1000, TailQuantile(1000)) == 10,
        "ten beyond p99 at n=1000");
  for (size_t n : {11u, 57u, 200u, 999u, 5000u}) {
    size_t beyond = n - 1 - NearestRankIndex(n, TailQuantile(n));
    Check(beyond >= 10, "tail quantile leaves at least ten samples beyond");
    Check(TailQuantile(n) <= 0.99, "tail quantile never above 0.99");
  }
  Check(TailQuantile(200) < 0.99 && TailQuantile(200) >= 0.95, "n=200 falls back to p95");
  Check(TailQuantile(5) == 1.0, "tiny samples report the maximum");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  perfbench::Percentiles p = Summarize(v);
  Check(p.n == 1000 && p.p50 == 500 && p.tail == 990, "summary of 1..1000");
  Check(p.mean == 500.5, "mean of 1..1000");

  // Five 1 s intervals of 100 requests each. In the fourth the host steals
  // half the runnable time and requests run twenty times slower: the quiet
  // summary leaves it out, and counts the rate over the quiet 4 s only.
  std::vector<TimedSample> s;
  std::vector<CpuMark> marks;
  for (int w = 0; w <= 5; ++w)
    marks.push_back({w * 1000000000LL, w * 100ULL, w > 3 ? 100ULL : 0});
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < 100; ++i)
      s.push_back({w * 1000000000LL + i * 10000000LL + 1, (w == 3 ? 20.0 : 1.0) + i * 0.01});
  QuietSummary q = SummarizeQuiet(s, marks, 0.10);
  Check(q.seconds == 5 && q.quiet_seconds == 4, "one disturbed second of five");
  Check(q.lat.n == 400 && q.qps == 100, "quiet rate over the quiet seconds");
  Check(q.lat.tail < 2, "quiet tail leaves the disturbed second out");
  // Mostly disturbed: every second counts.
  for (CpuMark& m : marks) m.steal = static_cast<uint64_t>(m.at_ns / 1000000000LL) * 100;
  q = SummarizeQuiet(s, marks, 0.10);
  Check(q.quiet_seconds == 5 && q.lat.n == 500 && q.lat.tail > 20,
        "under a third quiet: all seconds count");
  Check(SummarizeQuiet(s, {}, 0.10).lat.n == 500, "no marks: every request counts");
}

void TestRowHashes() {
  std::vector<std::string> a = {"<x>", "<y>"}, b = {"<y>", "<x>"};
  Check(RowHash(a) != RowHash(b), "row hash depends on column order");
  Check(RowHash({"<ab>", "<c>"}) != RowHash({"<a>", "<bc>"}), "cell boundaries matter");
  RowDigest d1, d2, d3;
  d1.Add(RowHash(a));
  d1.Add(RowHash(b));
  d2.Add(RowHash(b));
  d2.Add(RowHash(a));
  Check(d1 == d2, "digest is independent of row order");
  d3.Add(RowHash(a));
  d3.Add(RowHash(a));
  Check(!(d1 == d3), "digest sees a duplicated row in place of another");
  RowDigest d4 = d1;
  d4.Add(RowHash(a));
  Check(!(d1 == d4), "digest counts rows");
}

void TestEpochModel() {
  EpochModel m;
  m.AddBaseTakes("<s1>", "<c1>");
  m.AddBaseTakes("<s1>", "<c2>");
  m.AddBaseTakes("<s2>", "<c1>");
  m.AddBaseGrad("<s2>");
  EpochModel::Batch b1;
  b1.insert_takes = {{"<g1>", "<c1>"}};
  b1.insert_grads = {"<g1>"};
  Check(m.Record(3, b1), "first batch accepted");
  EpochModel::Batch b2;
  b2.delete_takes = {{"<s2>", "<c1>"}};
  Check(m.Record(5, b2), "second batch accepted");
  Check(!m.Record(5, b2), "a batch may not reuse an epoch");
  Check(!m.Record(4, b2), "epochs must increase");

  using Set = std::set<std::string>;
  Check(m.CoursesOf("<s1>", 0) == Set{"<c1>", "<c2>"}, "base courses");
  Check(m.GradsTaking("<c1>", 2) == Set{"<s2>"}, "before any update only the base grad");
  Check(m.GradsTaking("<c1>", 3) == Set{"<g1>", "<s2>"}, "insert visible at its epoch");
  Check(m.GradsTaking("<c1>", 4) == Set{"<g1>", "<s2>"},
        "epochs between batches (compaction)");
  Check(m.GradsTaking("<c1>", 5) == Set{"<g1>"}, "delete visible at its epoch");
  Check(m.CoursesOf("<g1>", 2).empty() && m.CoursesOf("<g1>", 9) == Set{"<c1>"},
        "new student's courses follow the epoch");
  Check(!m.IsGrad("<g1>", 2) && m.IsGrad("<g1>", 3), "inserted type follows the epoch");
  Check(m.GradsTaking("<c2>", 9).empty(), "non-grad takers are not grads");
}

void TestSelfTime() {
  Tracer t;
  uint32_t req = t.NameId("replay.request"), a = t.NameId("sparql.open"),
           b = t.NameId("server.write");
  uint32_t root = t.Add(req, 0, 1, 0, 10'000'000);
  t.Add(a, root, 1, 1'000'000, 3'000'000);
  t.Add(b, root, 1, 2'000'000, 5'000'000);    // overlaps the first child
  t.Add(b, root, 1, 8'000'000, 12'000'000);   // runs past the parent's end
  uint32_t child = t.Add(a, root, 1, 6'000'000, 7'000'000);
  t.Add(b, child, 1, 6'500'000, 6'750'000);   // grandchild
  std::vector<int64_t> self = SelfTimes(t.spans());
  // Root: 10 ms minus covered [1,5] + [6,7] + [8,10] = 7 ms → 3 ms.
  Check(self[0] == 3'000'000, "root self time subtracts the union of children");
  Check(self[1] == 2'000'000, "leaf self time is its duration");
  Check(self[4] == 750'000, "a child's own children are subtracted from it");
  t.Add(a, 0, 2, 20'000'000, 21'000'000);    // another request's span
  std::map<std::string, LayerSelfTime> by_layer = SelfTimeByLayer(t);
  Check(by_layer["replay"].ms == 3.0, "replay layer self time in ms");
  Check(by_layer["sparql"].ms == 2.0 + 0.75 + 1.0,
        "sparql layer sums its spans' self times");
  Check(by_layer["server"].ms == 3.0 + 4.0 + 0.25, "server layer sums its spans");
  Check(by_layer["sparql"].requests == 2 && by_layer["server"].requests == 1,
        "layers count the requests they were spent on");
  Check(LayerOf("store.compact") == "store" && LayerOf("plain") == "plain",
        "layer names");
}

void TestJson() {
  Json doc;
  Check(JsonReader("{\"epoch\":12,\"inserted\":3,\"deleted\":0}\n").Parse(&doc),
        "update body parses");
  Check(doc.Get("epoch") && doc.Get("epoch")->num == 12, "number member");
  Json res;
  std::string body =
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[\n"
      "{\"x\":{\"type\":\"uri\",\"value\":\"http://a/\\\"q\\u00e9\"}}\n]}}\n";
  Check(JsonReader(body).Parse(&res), "results body parses");
  const Json* b = res.Get("results")->Get("bindings");
  Check(b->items.size() == 1 &&
            b->items[0].Get("x")->Get("value")->str == "http://a/\"q\xc3\xa9",
        "escapes decode");
  Check(!JsonReader("{\"a\":1,}").Parse(&res), "trailing comma rejected");
  Check(!JsonReader("{\"a\":1} x").Parse(&res), "trailing garbage rejected");
}

}  // namespace

int main() {
  TestPercentiles();
  TestRowHashes();
  TestEpochModel();
  TestSelfTime();
  TestJson();
  if (failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
