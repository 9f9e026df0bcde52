// The unified query entry point: one Session object binds a store, a
// dictionary and a query-execution policy (generation pinning, plan
// cache, profile sink, per-query deadline), and every front end — the
// REPL, the CLI, the HTTP server, tests — runs queries through it.
//
// What a Session owns vs. shares:
//
//  - Owns: one reusable QueryProfile (so steady-state queries allocate
//    nothing), the pinning policy, the deadline budget.
//  - Shares (borrowed, caller-owned, must outlive the Session): the
//    store, the dictionary, optionally one PlanCache and one
//    ProfileSink. Both of those are thread-safe and meant to be shared
//    across every Session of a store — the server gives each worker
//    thread its own Session over one cache and one sink.
//
// A Session itself is single-threaded state (use one per thread). Every
// query executes profiled — that is what makes deadlines observable and
// the sink's histograms complete.
//
// Pinning: under PinPolicy::kWaitFree each query runs against one
// AcquireReadHandle() generation — wait-free, never blocked by writers
// or the compactor, possibly trailing the live store by an in-flight
// merge. kLinearizable uses GetSnapshot() (serializes with the writer
// mutex). kNone evaluates the store directly — the only choice for a
// plain TripleStore, and forced by the TripleStore constructor.
//
// docs/server.md covers how the server composes Sessions; the plan-cache
// validity contract lives in plan_cache.h.
#ifndef HEXASTORE_QUERY_SESSION_H_
#define HEXASTORE_QUERY_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "shard/sharded_hexastore.h"
#include "query/binding.h"
#include "query/pattern.h"
#include "query/plan_cache.h"
#include "query/profile.h"
#include "query/sparql_parser.h"
#include "util/status.h"

namespace hexastore {
namespace query {

/// How a Session isolates each query from concurrent writers.
enum class PinPolicy : std::uint8_t {
  kNone = 0,          ///< evaluate the store directly (plain stores)
  kWaitFree = 1,      ///< AcquireReadHandle() per query (server default)
  kLinearizable = 2,  ///< GetSnapshot() per query
};

/// Session construction knobs. Pointers are borrowed and may be null.
struct SessionOptions {
  PinPolicy pin = PinPolicy::kWaitFree;
  /// Finished-query aggregation (histograms + slow-query log); shared.
  ProfileSink* sink = nullptr;
  /// Normalized-BGP plan cache; shared. Null plans every query fresh.
  PlanCache* plan_cache = nullptr;
  /// Per-query wall-time budget in nanoseconds; 0 = unlimited. Checked
  /// at operator boundaries (BGP probes and solution-modifier stages),
  /// so a query overruns by at most one index scan.
  std::uint64_t deadline_ns = 0;
};

/// One executed query: the rows plus the complete profile (phase times,
/// per-pattern actuals, operator stages, rows_out are all populated —
/// Sessions always run profiled).
struct QueryResult {
  ResultSet set;
  QueryProfile profile;
  /// True when the BGP join order came from the plan cache.
  bool from_plan_cache = false;
};

class Session {
 public:
  /// Session over a DeltaHexastore; all pin policies available.
  Session(const DeltaHexastore& store, const Dictionary& dict,
          SessionOptions options = {});

  /// Session over a ShardedHexastore; all pin policies available. Each
  /// query pins one generation per shard (a ShardedSnapshot) and the
  /// plan-cache stamp is the concatenated per-shard stamp vector.
  Session(const ShardedHexastore& store, const Dictionary& dict,
          SessionOptions options = {});

  /// Session over any TripleStore. No generation gate exists, so the
  /// pin policy is forced to kNone regardless of `options.pin`.
  Session(const TripleStore& store, const Dictionary& dict,
          SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes a SPARQL-subset query. On success the result
  /// carries rows and the full profile; the sink (when set) has been
  /// fed either way. Overrunning the deadline returns DeadlineExceeded.
  Result<QueryResult> Query(std::string_view text);

  /// Evaluates a bare BGP through the same pin/cache/deadline/sink
  /// machinery (profile kind kBgp).
  Result<QueryResult> EvalBgp(const std::vector<TriplePattern>& patterns);

  /// EXPLAIN: parses and plans without executing. The rendered plan
  /// lists the BGP join order (index choice, bound positions, estimates)
  /// and the solution-modifier stages that would run. Always plans fresh
  /// (never through the cache) so the output is deterministic for a
  /// given store state.
  Result<std::string> Explain(std::string_view text);

  /// EXPLAIN ANALYZE: plan and execute (through the full Session
  /// machinery), render the annotated plan.
  Result<std::string> ExplainAnalyze(std::string_view text);

  const Dictionary& dict() const { return dict_; }
  const SessionOptions& options() const { return options_; }
  /// The profile of the most recent Query/EvalBgp/ExplainAnalyze call
  /// (valid until the next one; also embedded in each QueryResult).
  const QueryProfile& last_profile() const { return profile_; }

 private:
  // Executes `query` against the pinned (or direct) store view with the
  // solution-modifier pipeline; fills profile_/from_cache and feeds the
  // sink.
  Result<ResultSet> Run(const ParsedQuery& query, std::string_view text,
                        bool* from_cache);

  // Calls fn(view, stamp) with the view the pin policy selects (a
  // pinned generation of the store, or the store itself under kNone)
  // and that view's plan-cache stamp. The pin is released on return.
  template <typename Fn>
  auto WithView(Fn&& fn) const;

  const TripleStore& plain_;                   // target under kNone
  const DeltaHexastore* delta_ = nullptr;      // non-null ⇔ delta pinning
  const ShardedHexastore* sharded_ = nullptr;  // non-null ⇔ sharded pinning
  const Dictionary& dict_;
  SessionOptions options_;
  QueryProfile profile_;                       // reused across queries
};

}  // namespace query
}  // namespace hexastore

#endif  // HEXASTORE_QUERY_SESSION_H_
