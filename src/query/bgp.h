// Basic-graph-pattern evaluation over any TripleStore.
//
// Evaluation is index-nested-loop with the planner's greedy order: each
// step substitutes the current binding into the next pattern and scans the
// store with the resulting IdPattern, extending the binding per match. On
// a Hexastore every such scan is a vector/list lookup and every first-step
// pairwise join is a merge join by construction of the indexes (§4.2).
//
// This header holds the query layer's one evaluation loop and its one
// compile → plan → eval sequence; query::Session (session.h) runs every
// SPARQL query and bare BGP through them.
#ifndef HEXASTORE_QUERY_BGP_H_
#define HEXASTORE_QUERY_BGP_H_

#include <functional>
#include <vector>

#include "core/store_interface.h"
#include "dict/dictionary.h"
#include "query/binding.h"
#include "query/pattern.h"
#include "query/plan_cache.h"
#include "query/profile.h"

namespace hexastore {

/// Callback receiving each complete solution binding.
using BindingSink = std::function<void(const Binding&)>;

/// Evaluates a compiled BGP, streaming complete bindings to `sink`.
/// `order` must be a permutation of pattern indices (use PlanBgp).
///
/// `profile`, when non-null, accumulates per-pattern probes, rows
/// scanned/emitted and inclusive wall time into
/// `profile->patterns[depth]` (sized to the order if the caller did not
/// AttachPlan first), and stops descending once `profile->deadline_ns`
/// has passed. With nullptr the same loop is instantiated without any
/// of that: no clock reads (pinned by bench/abl_obs_overhead.cc).
void EvalBgp(const TripleStore& store, const CompiledBgp& bgp,
             const std::vector<std::size_t>& order, const BindingSink& sink,
             QueryProfile* profile = nullptr);

/// Compile + plan + evaluate + materialize. The join order comes from
/// `cache->Plan(store, bgp, stamp, ...)` when a cache is given (setting
/// `*from_cache` on a hit), else from a fresh PlanBgp.
///
/// With a profile, also records the plan and eval phase times, the
/// chosen plan (AttachPlan) and rows_out. total_ns is left alone: only a
/// Session, which sees the whole query, sets it.
ResultSet EvalBgp(const TripleStore& store, const Dictionary& dict,
                  const std::vector<TriplePattern>& patterns,
                  QueryProfile* profile = nullptr, PlanCache* cache = nullptr,
                  const PlanCacheStamp& stamp = {},
                  bool* from_cache = nullptr);

}  // namespace hexastore

#endif  // HEXASTORE_QUERY_BGP_H_
