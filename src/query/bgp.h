// Basic-graph-pattern evaluation over any TripleStore.
//
// Evaluation is index-nested-loop with the planner's greedy order: each
// step substitutes the current binding into the next pattern and scans the
// store with the resulting IdPattern, extending the binding per match. On
// a Hexastore every such scan is a vector/list lookup and every first-step
// pairwise join is a merge join by construction of the indexes.
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
/// has passed. With nullptr no clock is read (pinned by
/// bench/abl_obs_overhead.cc).
void EvalBgp(const TripleStore& store, const CompiledBgp& bgp,
             const std::vector<std::size_t>& order, const BindingSink& sink,
             QueryProfile* profile = nullptr);

/// Convenience: compile + plan + evaluate + materialize. The join order
/// comes from `cache` under `stamp` when a cache is given (`from_cache`,
/// when non-null, reports whether it was a hit), else from PlanBgp.
/// With a profile, also records plan/eval phase times, the chosen plan
/// (AttachPlan) and rows_out, and sets total_ns = parse_ns + plan_ns +
/// eval_ns.
ResultSet EvalBgp(const TripleStore& store, const Dictionary& dict,
                  const std::vector<TriplePattern>& patterns,
                  QueryProfile* profile = nullptr, PlanCache* cache = nullptr,
                  const PlanCacheStamp& stamp = {},
                  bool* from_cache = nullptr);

}  // namespace hexastore

#endif  // HEXASTORE_QUERY_BGP_H_
