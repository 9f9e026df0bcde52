// The three workloads and the helpers they share. Each Run* sets up its
// inputs and store, measures for Options::seconds in whole rounds, checks
// every answer against a computation kept apart from the code under test,
// and returns the end-to-end metrics (trace off) or the per-layer metrics
// (trace on).
#ifndef HEXBENCH_WORKLOADS_H_
#define HEXBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "query/session.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace hexbench {

RunResult RunPaperSparql(const Options& options);
RunResult RunProbeMix(const Options& options);
RunResult RunHttpMixed(const Options& options);

/// The restart of an in-memory store: its HXS1 snapshot (saved on
/// construction, compacting the store first; removed on destruction) is
/// reloaded into a fresh dictionary and store up to the first answered
/// query.
class SnapshotReloader {
 public:
  SnapshotReloader(const Options& options, const std::string& tag,
                   const hexastore::Dictionary& dict,
                   hexastore::DeltaHexastore* store, std::string first_query,
                   std::function<bool(const hexastore::ResultSet&)> check,
                   RunResult* res);
  ~SnapshotReloader();
  SnapshotReloader(const SnapshotReloader&) = delete;
  SnapshotReloader& operator=(const SnapshotReloader&) = delete;

  /// One reload, checked by `check`; records its raw seconds.
  void Reload();
  /// Median raw seconds of the reloads so far.
  double MedianS() const { return Median(times_); }
  std::size_t reloads() const { return times_.size(); }
  /// Snapshot bytes per stored triple.
  double bytes_per_triple() const { return bytes_per_triple_; }

 private:
  std::string path_;
  std::string first_query_;
  std::function<bool(const hexastore::ResultSet&)> check_;
  RunResult* res_;
  bool saved_ = false;
  double bytes_per_triple_ = 0;
  std::vector<double> times_;
};

/// Generator seeds derived from the benchmark seed (distinct streams).
inline std::uint64_t BartonSeed(std::uint64_t seed) {
  return 0xBA27000000000000ull ^ (seed * 0x9E3779B97F4A7C15ull);
}
inline std::uint64_t LubmSeed(std::uint64_t seed) {
  return 0x1B00000000000000ull ^ (seed * 0xC2B2AE3D27D4EB4Full);
}

/// The benchmark's own spelling of a term, used as the term-level key on
/// both sides of every check: `<iri>`, `"lexical"`, `"lexical"@lang`,
/// `"lexical"^^<datatype>`, `_:label` (no escaping; it is a key, not
/// N-Triples).
inline std::string TermKey(const hexastore::Term& t) {
  if (t.is_iri()) {
    return "<" + t.value() + ">";
  }
  if (t.is_blank()) {
    const std::string& v = t.value();
    return v.rfind("_:", 0) == 0 ? v : "_:" + v;
  }
  std::string key = "\"" + t.value() + "\"";
  if (!t.language().empty()) {
    key += "@" + t.language();
  } else if (!t.datatype().empty()) {
    key += "^^<" + t.datatype() + ">";
  }
  return key;
}

/// Metrics every per-layer (trace on) run reports; a workload that does
/// not exercise a layer leaves its figures at 0.
struct LayerFigures {
  // query
  Timer parse, plan, eval, json;
  double estimate_probes = 0;
  double rows_scanned = 0;
  double rows_out = 0;
  double cache_hits = 0;
  double queries = 0;
  // core
  double paper_hexa_ms = 0;
  double core_bytes_per_triple = 0;
  // delta
  Timer estimate, contains, insert, publish;
  double filter_skip_rate = 0;
  double l0_runs = 0;
  double write_amp = 0;
  double drains = 0;
  // dict, rdf
  Timer encode, lookup, rdf_parse;
  // wal
  Timer logged_write;
  double fsyncs = 0;
  double checkpoints = 0;
  double recovery_s = 0;
  // shard
  double scatter_reads_per_query = 0;
  double routed_writes = 0;
  // server
  Timer handle_query, handle_insert, handle_erase;
  double transport_us = 0;

  /// Folds one finished query's profile into the query-layer figures.
  void AddProfile(const hexastore::query::QueryResult& result);
  /// Emits every per-layer metric into `out`.
  void Emit(double calib_s, RunResult* out) const;
};

}  // namespace hexbench

#endif  // HEXBENCH_WORKLOADS_H_
