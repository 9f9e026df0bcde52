#include "query/session.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "query/bgp.h"
#include "query/operators.h"
#include "query/planner.h"

namespace hexastore {
namespace query {

namespace {

// Resolves a filter operand to a term spelling under a row. Returns false
// when the operand references an unbound/unknown variable (filter then
// rejects the row, matching SPARQL's error-as-false semantics).
bool ResolveOperand(const FilterOperand& operand, const ResultSet& result,
                    const Row& row, const Dictionary& dict,
                    std::string* out) {
  if (!operand.is_var) {
    *out = operand.term.ToNTriples();
    return true;
  }
  VarId col = result.vars.Lookup(operand.var);
  if (col == kNoVar) {
    return false;
  }
  Id id = row[static_cast<std::size_t>(col)];
  auto term = dict.TryTerm(id);
  if (!term.has_value()) {
    return false;
  }
  *out = term->ToNTriples();
  return true;
}

bool ApplyOp(FilterOp op, const std::string& lhs, const std::string& rhs) {
  switch (op) {
    case FilterOp::kEq:
      return lhs == rhs;
    case FilterOp::kNe:
      return lhs != rhs;
    case FilterOp::kLt:
      return lhs < rhs;
    case FilterOp::kLe:
      return lhs <= rhs;
    case FilterOp::kGt:
      return lhs > rhs;
    case FilterOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

// Sorts rows by the named columns; numeric columns compare as integers,
// term columns by their N-Triples spelling.
Status SortByColumns(ResultSet* result, const Dictionary& dict,
                     const std::vector<std::string>& names) {
  std::vector<VarId> cols;
  for (const auto& name : names) {
    VarId col = result->vars.Lookup(name);
    if (col == kNoVar) {
      return Status::InvalidArgument("ORDER BY unknown variable ?" + name);
    }
    cols.push_back(col);
  }
  std::stable_sort(
      result->rows.begin(), result->rows.end(),
      [&](const Row& a, const Row& b) {
        for (VarId c : cols) {
          auto i = static_cast<std::size_t>(c);
          if (result->IsNumeric(c)) {
            if (a[i] != b[i]) {
              return a[i] < b[i];
            }
            continue;
          }
          auto ta = dict.TryTerm(a[i]);
          auto tb = dict.TryTerm(b[i]);
          std::string sa = ta.has_value() ? ta->ToNTriples() : "";
          std::string sb = tb.has_value() ? tb->ToNTriples() : "";
          if (sa != sb) {
            return sa < sb;
          }
        }
        return false;
      });
  return Status::OK();
}

// Evaluates GROUP BY + COUNT aggregates over the solution rows. Output
// columns are the plain select vars followed by the aggregate aliases.
Result<ResultSet> Aggregate(const ResultSet& in, const ParsedQuery& query) {
  // Validate: plain select vars must be grouped.
  for (const auto& v : query.select_vars) {
    if (std::find(query.group_by.begin(), query.group_by.end(), v) ==
        query.group_by.end()) {
      return Status::InvalidArgument(
          "SELECT variable ?" + v + " must appear in GROUP BY");
    }
  }
  std::vector<VarId> group_cols;
  for (const auto& v : query.group_by) {
    VarId col = in.vars.Lookup(v);
    if (col == kNoVar) {
      return Status::InvalidArgument("GROUP BY unknown variable ?" + v);
    }
    group_cols.push_back(col);
  }
  struct GroupState {
    Row key;
    std::vector<std::uint64_t> plain_counts;
    std::vector<std::set<Id>> distinct_values;
  };
  std::map<Row, GroupState> groups;

  std::vector<VarId> agg_cols;
  for (const auto& agg : query.aggregates) {
    if (agg.var.empty()) {
      agg_cols.push_back(kNoVar);  // COUNT(*)
      continue;
    }
    VarId col = in.vars.Lookup(agg.var);
    if (col == kNoVar) {
      return Status::InvalidArgument("COUNT of unknown variable ?" +
                                     agg.var);
    }
    agg_cols.push_back(col);
  }

  for (const Row& row : in.rows) {
    Row key;
    key.reserve(group_cols.size());
    for (VarId c : group_cols) {
      key.push_back(row[static_cast<std::size_t>(c)]);
    }
    GroupState& state = groups[key];
    if (state.plain_counts.empty()) {
      state.key = key;
      state.plain_counts.assign(query.aggregates.size(), 0);
      state.distinct_values.assign(query.aggregates.size(), {});
    }
    for (std::size_t a = 0; a < query.aggregates.size(); ++a) {
      const SelectAggregate& agg = query.aggregates[a];
      const Id value = (agg_cols[a] == kNoVar)
                           ? kInvalidId
                           : row[static_cast<std::size_t>(agg_cols[a])];
      if (agg.distinct && agg_cols[a] != kNoVar) {
        state.distinct_values[a].insert(value);
      } else {
        ++state.plain_counts[a];
      }
    }
  }
  // SPARQL semantics: with no GROUP BY, aggregation over zero rows still
  // yields one all-zero group.
  if (groups.empty() && query.group_by.empty()) {
    GroupState empty;
    empty.plain_counts.assign(query.aggregates.size(), 0);
    empty.distinct_values.assign(query.aggregates.size(), {});
    groups[{}] = std::move(empty);
  }

  ResultSet out;
  // Output vars: plain select vars, then aliases.
  std::vector<VarId> select_cols;
  for (const auto& v : query.select_vars) {
    select_cols.push_back(in.vars.Lookup(v));
    out.vars.Intern(v);
    out.numeric.push_back(false);
  }
  for (const auto& agg : query.aggregates) {
    out.vars.Intern(agg.alias);
    out.numeric.push_back(true);
  }
  // Map each select var to its position in the group key.
  std::vector<std::size_t> select_key_pos;
  for (const auto& v : query.select_vars) {
    auto it = std::find(query.group_by.begin(), query.group_by.end(), v);
    select_key_pos.push_back(
        static_cast<std::size_t>(it - query.group_by.begin()));
  }
  for (const auto& [key, state] : groups) {
    Row row;
    row.reserve(select_cols.size() + query.aggregates.size());
    for (std::size_t i = 0; i < query.select_vars.size(); ++i) {
      row.push_back(key[select_key_pos[i]]);
    }
    for (std::size_t a = 0; a < query.aggregates.size(); ++a) {
      const SelectAggregate& agg = query.aggregates[a];
      if (agg.distinct && agg_cols[a] != kNoVar) {
        row.push_back(state.distinct_values[a].size());
      } else {
        row.push_back(state.plain_counts[a]);
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

// True when the profile carries an expired deadline; sets the flag so
// every later boundary short-circuits without another clock read.
bool DeadlineHit(QueryProfile* profile) {
  if (profile->deadline_ns == 0) {
    return false;
  }
  if (profile->deadline_exceeded) {
    return true;
  }
  if (obs::NowNanos() >= profile->deadline_ns) {
    profile->deadline_exceeded = true;
    return true;
  }
  return false;
}

// The solution-modifier pipeline: BGP evaluation (through `cache` with
// `stamp` when one is given), filters, aggregation, ORDER BY,
// projection, DISTINCT, LIMIT. `profile` (non-null) receives one
// OperatorProfile per stage that ran; a blown deadline stops the
// pipeline at the next stage boundary. `from_cache` reports whether the
// join order was served by the cache.
Result<ResultSet> RunPipeline(const TripleStore& store,
                              const Dictionary& dict,
                              const ParsedQuery& query, QueryProfile* profile,
                              PlanCache* cache, const PlanCacheStamp& stamp,
                              bool* from_cache) {
  // Records one solution-modifier stage; modifier time counts toward the
  // eval phase (everything after parse+plan).
  auto record_op = [&](const char* name, std::uint64_t rows_in,
                       std::uint64_t rows_out, std::uint64_t start_ns) {
    OperatorProfile op;
    op.name = name;
    op.rows_in = rows_in;
    op.rows_out = rows_out;
    op.wall_ns = obs::NowNanos() - start_ns;
    profile->eval_ns += op.wall_ns;
    profile->operators.push_back(op);
  };
  auto finish = [&](const ResultSet& r) {
    profile->rows_out = r.rows.size();
    profile->total_ns =
        profile->parse_ns + profile->plan_ns + profile->eval_ns;
  };

  ResultSet result = hexastore::EvalBgp(store, dict, query.patterns,
                                        profile, cache, stamp, from_cache);

  // A blown deadline stops the pipeline at the next operator boundary;
  // the Session surfaces it as DeadlineExceeded (partial rows are never
  // returned to callers).
  if (DeadlineHit(profile)) {
    finish(result);
    return result;
  }

  // Filters.
  if (!query.filters.empty()) {
    const std::uint64_t t = obs::NowNanos();
    const std::uint64_t in_rows = result.rows.size();
    std::vector<Row> kept;
    kept.reserve(result.rows.size());
    for (const Row& row : result.rows) {
      bool pass = true;
      for (const FilterExpr& f : query.filters) {
        std::string lhs;
        std::string rhs;
        if (!ResolveOperand(f.lhs, result, row, dict, &lhs) ||
            !ResolveOperand(f.rhs, result, row, dict, &rhs) ||
            !ApplyOp(f.op, lhs, rhs)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        kept.push_back(row);
      }
    }
    result.rows = std::move(kept);
    record_op("filter", in_rows, result.rows.size(), t);
    if (DeadlineHit(profile)) {
      finish(result);
      return result;
    }
  }

  // Aggregation replaces projection when present.
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    const std::uint64_t t_agg = obs::NowNanos();
    const std::uint64_t in_rows = result.rows.size();
    auto aggregated = Aggregate(result, query);
    if (!aggregated.ok()) {
      return aggregated.status();
    }
    result = std::move(aggregated).value();
    record_op("aggregate", in_rows, result.rows.size(), t_agg);
    if (!query.order_by.empty()) {
      const std::uint64_t t = obs::NowNanos();
      Status s = SortByColumns(&result, dict, query.order_by);
      if (!s.ok()) {
        return s;
      }
      record_op("order_by", result.rows.size(), result.rows.size(), t);
    }
    if (query.limit.has_value()) {
      const std::uint64_t t = obs::NowNanos();
      const std::uint64_t pre = result.rows.size();
      result = Limit(std::move(result), *query.limit);
      record_op("limit", pre, result.rows.size(), t);
    }
    finish(result);
    return result;
  }

  // ORDER BY (before projection so sort keys need not be projected).
  if (!query.order_by.empty()) {
    const std::uint64_t t = obs::NowNanos();
    Status s = SortByColumns(&result, dict, query.order_by);
    if (!s.ok()) {
      return s;
    }
    record_op("order_by", result.rows.size(), result.rows.size(), t);
    if (DeadlineHit(profile)) {
      finish(result);
      return result;
    }
  }

  // Projection.
  if (!query.select_vars.empty()) {
    const std::uint64_t t = obs::NowNanos();
    std::vector<VarId> cols;
    for (const auto& name : query.select_vars) {
      VarId col = result.vars.Lookup(name);
      if (col == kNoVar) {
        return Status::InvalidArgument("SELECT unknown variable ?" + name);
      }
      cols.push_back(col);
    }
    result = Project(result, cols);
    record_op("project", result.rows.size(), result.rows.size(), t);
  }

  if (query.distinct) {
    const std::uint64_t t = obs::NowNanos();
    const std::uint64_t pre = result.rows.size();
    bool had_order = !query.order_by.empty();
    result = Distinct(std::move(result));
    // Distinct sorts by id; if the user asked for an order, re-sort on
    // the (now projected) columns that survived.
    if (had_order) {
      std::vector<std::string> survivors;
      for (const auto& name : query.order_by) {
        if (result.vars.Lookup(name) != kNoVar) {
          survivors.push_back(name);
        }
      }
      Status s = SortByColumns(&result, dict, survivors);
      if (!s.ok()) {
        return s;
      }
    }
    record_op("distinct", pre, result.rows.size(), t);
  }

  if (query.limit.has_value()) {
    const std::uint64_t t = obs::NowNanos();
    const std::uint64_t pre = result.rows.size();
    result = Limit(std::move(result), *query.limit);
    record_op("limit", pre, result.rows.size(), t);
  }
  finish(result);
  return result;
}

}  // namespace

Session::Session(const DeltaHexastore& store, const Dictionary& dict,
                 SessionOptions options)
    : plain_(store), delta_(&store), dict_(dict), options_(options) {}

Session::Session(const ShardedHexastore& store, const Dictionary& dict,
                 SessionOptions options)
    : plain_(store), sharded_(&store), dict_(dict), options_(options) {}

Session::Session(const TripleStore& store, const Dictionary& dict,
                 SessionOptions options)
    : plain_(store), dict_(dict), options_(options) {
  options_.pin = PinPolicy::kNone;
}

template <typename Fn>
auto Session::WithView(Fn&& fn) const {
  // Only the DeltaHexastore and ShardedHexastore constructors leave a
  // pin policy other than kNone.
  const bool linearizable = options_.pin == PinPolicy::kLinearizable;
  if (options_.pin != PinPolicy::kNone && sharded_ != nullptr) {
    const ShardedSnapshot snap = linearizable ? sharded_->GetSnapshot()
                                              : sharded_->AcquireReadHandle();
    return fn(snap, PlanCacheStamp(snap.StampVector()));
  }
  if (options_.pin != PinPolicy::kNone) {
    const DeltaHexastore::Snapshot snap = linearizable
                                              ? delta_->GetSnapshot()
                                              : delta_->AcquireReadHandle();
    return fn(snap, PlanCacheStamp{snap.epoch(), snap.staged_ops()});
  }
  // Unpinned stores have no epoch; the size doubles as a weak staged-
  // ops stamp (estimate probes catch what it misses).
  return fn(plain_, PlanCacheStamp{0, plain_.size()});
}

Result<ResultSet> Session::Run(const ParsedQuery& query,
                               std::string_view text, bool* from_cache) {
  if (options_.deadline_ns != 0) {
    profile_.deadline_ns = obs::NowNanos() + options_.deadline_ns;
  }
  const std::uint64_t pin_start = obs::NowNanos();
  Result<ResultSet> result = WithView(
      [&](const TripleStore& view, const PlanCacheStamp& stamp) {
        return RunPipeline(view, dict_, query, &profile_,
                           options_.plan_cache, stamp, from_cache);
      });
  if (options_.pin != PinPolicy::kNone) {
    profile_.pin_ns = obs::NowNanos() - pin_start;
    // Pin time encloses plan+eval, so total is parse + pin.
    profile_.total_ns = profile_.parse_ns + profile_.pin_ns;
  }
  if (options_.sink != nullptr) {
    options_.sink->Record(profile_, text);
  }
  if (!result.ok()) {
    return result.status();
  }
  if (profile_.deadline_exceeded) {
    return Status::DeadlineExceeded(
        "query exceeded its deadline after " +
        std::to_string(profile_.total_ns / 1000000) + "ms");
  }
  return result;
}

Result<QueryResult> Session::Query(std::string_view text) {
  profile_.Reset();
  profile_.kind = QueryKind::kSparql;
  const std::uint64_t parse_start = obs::NowNanos();
  auto parsed = ParseSparql(text);
  profile_.parse_ns += obs::NowNanos() - parse_start;
  if (!parsed.ok()) {
    return parsed.status();
  }
  bool from_cache = false;
  auto result = Run(parsed.value(), text, &from_cache);
  if (!result.ok()) {
    return result.status();
  }
  QueryResult out;
  out.set = std::move(result).value();
  out.profile = profile_;
  out.from_plan_cache = from_cache;
  return out;
}

Result<QueryResult> Session::EvalBgp(
    const std::vector<TriplePattern>& patterns) {
  profile_.Reset();
  profile_.kind = QueryKind::kBgp;
  ParsedQuery query;
  query.patterns = patterns;
  bool from_cache = false;
  auto result = Run(query, "<bgp>", &from_cache);
  if (!result.ok()) {
    return result.status();
  }
  QueryResult out;
  out.set = std::move(result).value();
  out.profile = profile_;
  out.from_plan_cache = from_cache;
  return out;
}

Result<std::string> Session::Explain(std::string_view text) {
  auto parsed = ParseSparql(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const ParsedQuery& query = parsed.value();
  const CompiledBgp bgp = CompileBgp(query.patterns, dict_);
  std::string out;
  if (bgp.trivially_empty) {
    out = "plan: sparql, empty result (constant term not in dictionary)\n";
  } else {
    // Plan against the same view a query would evaluate (pin policy
    // honored), but never through the plan cache: EXPLAIN output must
    // be deterministic for a given store state.
    PlanProfile plan;
    WithView([&](const TripleStore& view, const PlanCacheStamp&) {
      PlanBgp(view, bgp, &plan);
    });
    QueryProfile profile;
    profile.kind = QueryKind::kSparql;
    AttachPlan(bgp, dict_, plan, &profile);
    out = RenderExplain(profile);
  }
  // Solution-modifier stages in the order the pipeline applies them.
  std::string stages;
  if (!query.filters.empty()) stages += " filter";
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    stages += " aggregate";
    if (!query.order_by.empty()) stages += " order_by";
    if (query.limit.has_value()) stages += " limit";
  } else {
    if (!query.order_by.empty()) stages += " order_by";
    if (!query.select_vars.empty()) stages += " project";
    if (query.distinct) stages += " distinct";
    if (query.limit.has_value()) stages += " limit";
  }
  if (!stages.empty()) {
    out += "modifiers:" + stages + "\n";
  }
  return out;
}

Result<std::string> Session::ExplainAnalyze(std::string_view text) {
  auto result = Query(text);
  if (!result.ok() &&
      result.status().code() != StatusCode::kDeadlineExceeded) {
    return result.status();
  }
  // A deadline overrun still renders (the partial actuals are exactly
  // what the caller wants to see in that case).
  return RenderExplainAnalyze(profile_);
}

}  // namespace query
}  // namespace hexastore
