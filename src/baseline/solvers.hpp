// Baseline BGP engines standing in for the paper's competitors (§7.1):
//
//  * SortMergeBgpSolver — RDF-3X stand-in: materializes one relation per
//    triple pattern by an index range scan over the six-permutation store,
//    then joins relations smallest-first (hash joins on shared variables).
//    Its cost is driven by scan sizes, which grow with the dataset — exactly
//    the behaviour the paper reports for RDF-3X on the constant-solution
//    LUBM queries (Table 3).
//
//  * IndexJoinBgpSolver — "System-X" stand-in: selectivity-ordered index
//    nested-loop join, probing one pattern at a time. Nearly constant on
//    point queries, expensive when intermediate results are large (the
//    paper's Q2/Q9 observations). Given a DeltaView it also serves an epoch
//    of the live store (store/live_store.hpp): the RDF-3X differential
//    shape, base index minus tombstones plus a small delta index.
//
// Both operate directly on the dictionary-encoded triples (rdf:type is an
// ordinary predicate to them), so they must be given the inference-closed
// dataset — the same data every engine loads in the paper's setup.
#pragma once

#include <unordered_set>

#include "baseline/triple_index.hpp"
#include "rdf/triple.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/solver.hpp"

namespace turbo::baseline {

using TombstoneSet = std::unordered_set<rdf::Triple, rdf::TripleHash>;

/// Base+delta view for IndexJoinBgpSolver; every pointer is non-owning and
/// may be null. Scans read the base index minus `tombstones`, then `delta`
/// (disjoint from the base, so the union needs no dedup). Constants that
/// the dictionary lacks resolve through `overlay`, but only to ids below
/// `overlay_limit`: later ids belong to later epochs and match nothing.
struct DeltaView {
  const TombstoneSet* tombstones = nullptr;
  const TripleIndex* delta = nullptr;
  const sparql::LocalVocab* overlay = nullptr;
  TermId overlay_limit = 0;
};

class SortMergeBgpSolver : public sparql::BgpSolver {
 public:
  SortMergeBgpSolver(const TripleIndex& index, const rdf::Dictionary& dict)
      : index_(index), dict_(dict) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>& bgp,
                        const sparql::VarRegistry& vars, const sparql::Row& bound,
                        const std::vector<const sparql::FilterExpr*>& pushable,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control = {}) const override;

  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const TripleIndex& index_;
  const rdf::Dictionary& dict_;
};

class IndexJoinBgpSolver : public sparql::BgpSolver {
 public:
  IndexJoinBgpSolver(const TripleIndex& index, const rdf::Dictionary& dict,
                     DeltaView delta = {})
      : index_(index), dict_(dict), delta_(delta) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>& bgp,
                        const sparql::VarRegistry& vars, const sparql::Row& bound,
                        const std::vector<const sparql::FilterExpr*>& pushable,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control = {}) const override;

  const rdf::Dictionary& dict() const override { return dict_; }

 private:
  const TripleIndex& index_;
  const rdf::Dictionary& dict_;
  DeltaView delta_;
};

}  // namespace turbo::baseline
