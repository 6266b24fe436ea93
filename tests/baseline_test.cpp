// Unit tests for the baseline substrate: the six-permutation triple index
// and the two baseline BGP solvers (every binding-pattern combination, join
// ordering, repeated variables, pre-bound rows), plus a differential test of
// the index join over a base+delta view against the same join over the
// materialized union.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>

#include "baseline/solvers.hpp"
#include "baseline/triple_index.hpp"
#include "sparql/parser.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace turbo::baseline {
namespace {

class TripleIndexTest : public ::testing::Test {
 protected:
  TripleIndexTest() {
    ds_ = testing::MakeDataset({
        {"a", "p", "b"},
        {"a", "p", "c"},
        {"a", "q", "b"},
        {"b", "p", "c"},
        {"c", "q", "a"},
        {"c", "q", "a"},  // duplicate: must be deduplicated
    });
    index_ = std::make_unique<TripleIndex>(ds_);
  }
  TermId T(const std::string& name) {
    auto t = ds_.dict().FindIri(testing::TestIri(name));
    return t ? *t : kInvalidId;
  }
  rdf::Dataset ds_;
  std::unique_ptr<TripleIndex> index_;
};

TEST_F(TripleIndexTest, Deduplicates) { EXPECT_EQ(index_->size(), 5u); }

TEST_F(TripleIndexTest, FullScan) {
  EXPECT_EQ(index_->Lookup(kInvalidId, kInvalidId, kInvalidId).size(), 5u);
}

TEST_F(TripleIndexTest, AllBindingPatterns) {
  // (s) (p) (o) (sp) (so) (po) (spo)
  EXPECT_EQ(index_->Lookup(T("a"), kInvalidId, kInvalidId).size(), 3u);
  EXPECT_EQ(index_->Lookup(kInvalidId, T("p"), kInvalidId).size(), 3u);
  EXPECT_EQ(index_->Lookup(kInvalidId, kInvalidId, T("b")).size(), 2u);
  EXPECT_EQ(index_->Lookup(T("a"), T("p"), kInvalidId).size(), 2u);
  EXPECT_EQ(index_->Lookup(T("a"), kInvalidId, T("b")).size(), 2u);
  EXPECT_EQ(index_->Lookup(kInvalidId, T("q"), T("a")).size(), 1u);
  EXPECT_EQ(index_->Lookup(T("a"), T("p"), T("b")).size(), 1u);
  EXPECT_EQ(index_->Lookup(T("a"), T("q"), T("c")).size(), 0u);
}

TEST_F(TripleIndexTest, RangesAreExact) {
  // Every returned triple must actually match the binding.
  auto span = index_->Lookup(T("a"), kInvalidId, T("b"));
  for (const rdf::Triple& t : span) {
    EXPECT_EQ(t.s, T("a"));
    EXPECT_EQ(t.o, T("b"));
  }
}

TEST_F(TripleIndexTest, MissingTermsYieldEmpty) {
  EXPECT_TRUE(index_->Lookup(12345, kInvalidId, kInvalidId).empty());
}

// ---------------------------------------------------------------------------
// Solver-level tests (shared across both baselines via a parameterized
// fixture).
// ---------------------------------------------------------------------------

enum class Kind { kSortMerge, kIndexJoin };

class BaselineSolverTest : public ::testing::TestWithParam<Kind> {
 protected:
  BaselineSolverTest() {
    ds_ = testing::MakeDataset({
        {"alice", "knows", "bob"},
        {"bob", "knows", "carol"},
        {"carol", "knows", "alice"},
        {"alice", "worksFor", "acme"},
        {"bob", "worksFor", "acme"},
        {"narc", "knows", "narc"},  // self loop
    });
    index_ = std::make_unique<TripleIndex>(ds_);
    if (GetParam() == Kind::kSortMerge)
      solver_ = std::make_unique<SortMergeBgpSolver>(*index_, ds_.dict());
    else
      solver_ = std::make_unique<IndexJoinBgpSolver>(*index_, ds_.dict());
  }

  /// Evaluates a BGP given as SPARQL text; returns distinct + total counts.
  std::pair<size_t, size_t> Eval(const std::string& where, sparql::Row bound = {}) {
    auto q = sparql::ParseQuery("SELECT * WHERE { " + where + " }");
    EXPECT_TRUE(q.ok()) << q.message();
    sparql::VarRegistry vars;
    for (const auto& tp : q.value().where.triples)
      for (const auto* pt : {&tp.s, &tp.p, &tp.o})
        if (pt->is_var()) vars.GetOrAdd(pt->var);
    bound.resize(vars.size(), kInvalidId);
    std::set<sparql::Row> distinct;
    size_t total = 0;
    auto st = solver_->Evaluate(q.value().where.triples, vars, bound, {},
                                [&](const sparql::Row& r) {
                                  distinct.insert(r);
                                  ++total;
                                  return sparql::EmitResult::kContinue;
                                });
    EXPECT_TRUE(st.ok()) << st.message();
    return {distinct.size(), total};
  }

  TermId T(const std::string& name) { return *ds_.dict().FindIri(testing::TestIri(name)); }

  rdf::Dataset ds_;
  std::unique_ptr<TripleIndex> index_;
  std::unique_ptr<sparql::BgpSolver> solver_;
};

TEST_P(BaselineSolverTest, SinglePattern) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?y .").second, 4u);
}

TEST_P(BaselineSolverTest, ChainJoin) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?y . ?y <http://t/knows> ?z .").second, 4u);
}

TEST_P(BaselineSolverTest, TriangleJoin) {
  EXPECT_EQ(
      Eval("?x <http://t/knows> ?y . ?y <http://t/knows> ?z . ?z <http://t/knows> ?x .")
          .second,
      4u);  // 3 rotations + the self-loop triple (narc,narc,narc)
}

TEST_P(BaselineSolverTest, RepeatedVariableWithinPattern) {
  EXPECT_EQ(Eval("?x <http://t/knows> ?x .").second, 1u);  // narc only
}

TEST_P(BaselineSolverTest, ConstantAnchors) {
  EXPECT_EQ(Eval("<http://t/alice> <http://t/knows> ?y .").second, 1u);
  EXPECT_EQ(Eval("?x <http://t/worksFor> <http://t/acme> .").second, 2u);
  EXPECT_EQ(Eval("<http://t/alice> <http://t/knows> <http://t/bob> .").second, 1u);
}

TEST_P(BaselineSolverTest, UnknownConstantYieldsNoRows) {
  EXPECT_EQ(Eval("<http://t/ghost> <http://t/knows> ?y .").second, 0u);
}

TEST_P(BaselineSolverTest, VariablePredicate) {
  EXPECT_EQ(Eval("<http://t/alice> ?p ?y .").second, 2u);  // knows + worksFor
}

TEST_P(BaselineSolverTest, CartesianWhenDisconnected) {
  EXPECT_EQ(Eval("?x <http://t/worksFor> <http://t/acme> . "
                 "?a <http://t/knows> <http://t/carol> .")
                .second,
            2u);  // 2 workers x 1 knower
}

TEST_P(BaselineSolverTest, PreBoundRowActsAsConstant) {
  // Bind ?x = alice before evaluation (the executor's OPTIONAL mechanism).
  auto q = sparql::ParseQuery("SELECT * WHERE { ?x <http://t/knows> ?y . }");
  ASSERT_TRUE(q.ok());
  sparql::VarRegistry vars;
  int vx = vars.GetOrAdd("x");
  vars.GetOrAdd("y");
  sparql::Row bound(vars.size(), kInvalidId);
  bound[vx] = T("alice");
  size_t count = 0;
  auto st = solver_->Evaluate(q.value().where.triples, vars, bound, {},
                              [&](const sparql::Row& r) {
                                EXPECT_EQ(r[vx], T("alice"));
                                ++count;
                                return sparql::EmitResult::kContinue;
                              });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 1u);
}

TEST_P(BaselineSolverTest, EmptyBgpEmitsBoundRow) {
  auto [distinct, total] = Eval("");
  EXPECT_EQ(total, 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, BaselineSolverTest,
                         ::testing::Values(Kind::kSortMerge, Kind::kIndexJoin));

// ---------------------------------------------------------------------------
// IndexJoin over a base+delta view (the live store's epoch shape) vs the
// same join over one TripleIndex of base minus tombstones plus adds.
// ---------------------------------------------------------------------------

/// e0..e7 are base entities; n0 and n1 enter through the overlay below its
/// limit, `late` is interned after it, `ghost` is never interned.
std::string EntityName(uint64_t i) {
  static const char* const kOther[] = {"n0", "n1", "late", "ghost"};
  return i < 8 ? "e" + std::to_string(i) : kOther[i - 8];
}
/// p0..p2 are base predicates, np an overlay one, `late` above the limit.
std::string PredName(uint64_t i) {
  return i < 3 ? "p" + std::to_string(i) : i == 3 ? "np" : "late";
}

sparql::PatternTerm Pt(const std::string& name) {
  if (name[0] == '?') return sparql::PatternTerm::Var(name.substr(1));
  return sparql::PatternTerm::Const(rdf::Term::Iri(testing::TestIri(name)));
}

/// A random epoch: tombstones drawn from the base, adds disjoint from it
/// over base and overlay terms. `merged_*` is the same epoch materialized:
/// one index over base minus tombstones plus adds, and a dictionary that
/// gives the visible overlay terms their overlay ids.
struct DeltaCase {
  DeltaCase(util::Rng& rng, uint64_t n_edges) {
    for (uint64_t e = 0; e < n_edges; ++e)
      base.AddIri(testing::TestIri(EntityName(rng.Below(8))),
                  testing::TestIri(PredName(rng.Below(3))),
                  testing::TestIri(EntityName(rng.Below(8))));
    base_index = std::make_unique<TripleIndex>(base);
    const rdf::Dictionary& dict = base.dict();
    overlay = std::make_unique<sparql::LocalVocab>(static_cast<TermId>(dict.size()));
    auto id = [&](const std::string& name) {  // the live store's interning rule
      rdf::Term t = rdf::Term::Iri(testing::TestIri(name));
      std::optional<TermId> found = dict.Find(t);
      return found ? *found : overlay->Intern(t);
    };
    std::vector<rdf::Triple> adds;
    for (uint64_t i = 0, n = 1 + rng.Below(n_edges); i < n; ++i) {
      rdf::Triple t{id(EntityName(rng.Below(10))), id(PredName(rng.Below(4))),
                    id(EntityName(rng.Below(10)))};
      if (base_index->Lookup(t.s, t.p, t.o).empty()) adds.push_back(t);
    }
    overlay_limit = static_cast<TermId>(dict.size() + overlay->size());
    id("late");  // interned by a later epoch
    delta_index = std::make_unique<TripleIndex>(adds);

    merged_dict = dict;
    for (TermId t = static_cast<TermId>(dict.size()); t < overlay_limit; ++t)
      EXPECT_EQ(merged_dict.GetOrAdd(*overlay->Find(t)), t);
    for (const rdf::Triple& t : base_index->Lookup(kInvalidId, kInvalidId, kInvalidId)) {
      if (rng.Chance(0.25))
        tombstones.insert(t);
      else
        adds.push_back(t);
    }
    merged_index = std::make_unique<TripleIndex>(std::move(adds));
  }

  DeltaView view() const {
    return {&tombstones, delta_index.get(), overlay.get(), overlay_limit};
  }

  rdf::Dataset base;
  std::unique_ptr<TripleIndex> base_index, delta_index, merged_index;
  TombstoneSet tombstones;
  std::unique_ptr<sparql::LocalVocab> overlay;
  TermId overlay_limit = 0;
  rdf::Dictionary merged_dict;
};

/// Random connected BGP of 1..3 patterns; constants come from every class
/// of term above.
std::vector<sparql::TriplePattern> RandomBgp(util::Rng& rng) {
  auto vertex = [&](uint64_t v) {
    return Pt(rng.Chance(0.2) ? EntityName(rng.Below(12)) : "?v" + std::to_string(v));
  };
  std::vector<sparql::TriplePattern> bgp(1 + rng.Below(3));
  for (uint64_t i = 0; i < bgp.size(); ++i) {
    const uint64_t from = rng.Below(i + 1);
    const bool forward = rng.Chance(0.5);
    bgp[i].s = vertex(forward ? from : i + 1);
    bgp[i].o = vertex(forward ? i + 1 : from);
    bgp[i].p = Pt(rng.Chance(0.2) ? "?p" : PredName(rng.Below(5)));
  }
  return bgp;
}

/// Sorted rows `solver` emits for `bgp`; the sink stops after `stop_after`
/// rows. Without `status` the solver must return Ok.
std::vector<sparql::Row> SortedRows(const sparql::BgpSolver& solver,
                                    const std::vector<sparql::TriplePattern>& bgp,
                                    util::Status* status = nullptr,
                                    size_t stop_after = SIZE_MAX,
                                    const sparql::EvalControl& control = {}) {
  sparql::VarRegistry vars;
  for (const auto& tp : bgp)
    for (const auto* pt : {&tp.s, &tp.p, &tp.o})
      if (pt->is_var()) vars.GetOrAdd(pt->var);
  std::vector<sparql::Row> rows;
  util::Status st = solver.Evaluate(
      bgp, vars, sparql::Row(vars.size(), kInvalidId), {},
      [&](const sparql::Row& r) {
        rows.push_back(r);
        return rows.size() == stop_after ? sparql::EmitResult::kStop
                                         : sparql::EmitResult::kContinue;
      },
      control);
  if (status)
    *status = st;
  else
    EXPECT_TRUE(st.ok()) << st.message();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(IndexJoinDeltaView, MatchesJoinOverMaterializedUnion) {
  size_t nonempty = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    DeltaCase c(rng, 10 + rng.Below(30));
    IndexJoinBgpSolver overlaid(*c.base_index, c.base.dict(), c.view());
    IndexJoinBgpSolver reference(*c.merged_index, c.merged_dict);
    // Under a limit from before the overlay terms were interned, they must
    // resolve to nothing, exactly as the base dictionary alone would.
    DeltaView older = c.view();
    older.overlay_limit = static_cast<TermId>(c.base.dict().size());
    IndexJoinBgpSolver overlaid_older(*c.base_index, c.base.dict(), older);
    IndexJoinBgpSolver reference_older(*c.merged_index, c.base.dict());
    for (int q = 0; q < 25; ++q) {
      std::vector<sparql::TriplePattern> bgp = RandomBgp(rng);
      std::vector<sparql::Row> expect = SortedRows(reference, bgp);
      EXPECT_EQ(SortedRows(overlaid, bgp), expect) << "seed " << seed << " query " << q;
      EXPECT_EQ(SortedRows(overlaid_older, bgp), SortedRows(reference_older, bgp)) << "seed " << seed;
      nonempty += !expect.empty();
    }
  }
  EXPECT_GT(nonempty, 40u * 25 / 4);  // the generator mostly finds answers
}

TEST(IndexJoinDeltaView, SinkStopAndCancelUnwind) {
  util::Rng rng(11);
  DeltaCase c(rng, 200);
  IndexJoinBgpSolver solver(*c.base_index, c.base.dict(), c.view());
  // A three-pattern chain probes far more triples than the 4096 between
  // control checks.
  const std::vector<sparql::TriplePattern> bgp = {{Pt("?a"), Pt("?p"), Pt("?b")},
                                                  {Pt("?b"), Pt("?q"), Pt("?c")},
                                                  {Pt("?c"), Pt("?r"), Pt("?d")}};
  const size_t full = SortedRows(solver, bgp).size();
  ASSERT_GT(full, 10000u);
  util::Status st;
  EXPECT_EQ(SortedRows(solver, bgp, &st, 5).size(), 5u);
  EXPECT_TRUE(st.ok()) << st.message();
  std::atomic<bool> cancel{true};
  sparql::EvalControl control;
  control.cancel = &cancel;
  EXPECT_LT(SortedRows(solver, bgp, &st, SIZE_MAX, control).size(), full);
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace turbo::baseline
