// Tests for the per-query profiling layer (query/profile.h): q-error
// pins, phase accounting, the ProfileSink histograms and slow-query
// ring, and the EXPLAIN ANALYZE rendering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "obs/metrics.h"
#include "query/bgp.h"
#include "query/merge_join.h"
#include "query/path.h"
#include "query/profile.h"
#include "query/session.h"

namespace hexastore {
namespace {

TriplePattern TP(PatternTerm s, PatternTerm p, PatternTerm o) {
  return {std::move(s), std::move(p), std::move(o)};
}
PatternTerm B(const std::string& iri) {
  return PatternTerm::Bound(Term::Iri(iri));
}
PatternTerm V(const std::string& name) {
  return PatternTerm::Variable(name);
}

TEST(QErrorTest, PerfectAndZeroEstimatesPinToOne) {
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);  // both clamp to 1
  EXPECT_DOUBLE_EQ(QError(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(1.0, 10.0), 10.0);  // symmetric
  EXPECT_DOUBLE_EQ(QError(0.0, 5.0), 5.0);    // est clamps to 1
}

class QueryProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto add = [&](const std::string& s, const std::string& p,
                   const std::string& o) {
      store_.Insert(
          dict_.Encode({Term::Iri(s), Term::Iri(p), Term::Iri(o)}));
    };
    add("s0", "p1", "o0");
    for (int i = 0; i < 100; ++i) {
      add("s" + std::to_string(i), "p2", "x" + std::to_string(i % 10));
    }
  }

  Hexastore store_;
  Dictionary dict_;
};

TEST_F(QueryProfileTest, FullyBoundPatternReportsQErrorOne) {
  // A fully-bound present pattern goes through the exact membership
  // estimate (EstimateMatches == 1) and emits exactly one row per
  // probe, so its q-error is exactly 1 — the satellite pin.
  QueryProfile profile;
  ResultSet r =
      EvalBgp(store_, dict_, {TP(B("s0"), B("p1"), B("o0"))}, &profile);
  EXPECT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(profile.patterns.size(), 1u);
  EXPECT_EQ(profile.patterns[0].estimated, 1u);
  EXPECT_EQ(profile.patterns[0].probes, 1u);
  EXPECT_EQ(profile.patterns[0].rows_emitted, 1u);
  EXPECT_DOUBLE_EQ(profile.patterns[0].QErrorValue(), 1.0);
  EXPECT_DOUBLE_EQ(profile.MaxQError(), 1.0);
}

TEST_F(QueryProfileTest, ProfiledAndUnprofiledResultsMatch) {
  const std::vector<TriplePattern> patterns = {
      TP(V("x"), B("p1"), V("y")), TP(V("x"), B("p2"), V("z"))};
  QueryProfile profile;
  ResultSet profiled = EvalBgp(store_, dict_, patterns, &profile);
  ResultSet plain = EvalBgp(store_, dict_, patterns);
  EXPECT_EQ(profiled.rows, plain.rows);
  EXPECT_EQ(profile.rows_out, profiled.rows.size());
  EXPECT_EQ(profile.total_ns,
            profile.parse_ns + profile.plan_ns + profile.eval_ns);
  ASSERT_EQ(profile.patterns.size(), 2u);
  // The selective p1 pattern runs first and scans exactly its 1 triple.
  EXPECT_EQ(profile.patterns[0].rows_scanned, 1u);
  EXPECT_GT(profile.patterns[0].wall_ns, 0u);
  EXPECT_GT(profile.estimate_probes, 0u);
}

TEST_F(QueryProfileTest, SparqlProfileRecordsPhasesAndOperators) {
  auto result = query::Session(store_, dict_)
                    .Query("SELECT DISTINCT ?x WHERE { ?x <p2> ?y } "
                           "ORDER BY ?x LIMIT 5");
  ASSERT_TRUE(result.ok());
  const QueryProfile& profile = result.value().profile;
  EXPECT_EQ(profile.kind, QueryKind::kSparql);
  EXPECT_GT(profile.parse_ns, 0u);
  EXPECT_EQ(profile.rows_out, 5u);
  // order_by, project, distinct, limit all ran.
  std::vector<std::string> names;
  for (const OperatorProfile& op : profile.operators) {
    names.emplace_back(op.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"order_by", "project",
                                             "distinct", "limit"}));
  // limit saw the 10 distinct subjects-of-p2... (100 rows, 10 distinct
  // after projection) and kept 5.
  EXPECT_EQ(profile.operators.back().rows_out, 5u);
}

TEST_F(QueryProfileTest, ExplainAnalyzeRendersActuals) {
  query::Session session(store_, dict_);
  auto report =
      session.ExplainAnalyze("SELECT ?x WHERE { ?x <p1> ?y . ?x <p2> ?z }");
  ASSERT_TRUE(report.ok());
  const QueryProfile& profile = session.last_profile();
  EXPECT_NE(report.value().find("actual: probes="), std::string::npos);
  EXPECT_NE(report.value().find("q_error="), std::string::npos);
  EXPECT_NE(report.value().find("phases: parse="), std::string::npos);
  EXPECT_EQ(profile.rows_out, 1u);
}

TEST_F(QueryProfileTest, PathAndJoinOperatorsRecord) {
  Id p1 = dict_.Lookup(Term::Iri("p1"));
  Id p2 = dict_.Lookup(Term::Iri("p2"));
  QueryProfile path_profile;
  EvalPathHexastore(store_, {p2, p2}, &path_profile);
  EXPECT_EQ(path_profile.kind, QueryKind::kPath);
  ASSERT_EQ(path_profile.operators.size(), 2u);
  EXPECT_STREQ(path_profile.operators[0].name, "path_seed");
  EXPECT_STREQ(path_profile.operators[1].name, "path_join");
  EXPECT_EQ(path_profile.operators[0].rows_out, 100u);

  QueryProfile join_profile;
  JoinChain(store_, p1, p2, &join_profile);
  ASSERT_EQ(join_profile.operators.size(), 1u);
  EXPECT_STREQ(join_profile.operators[0].name, "join_chain");
  EXPECT_EQ(join_profile.total_ns, join_profile.eval_ns);
}

TEST_F(QueryProfileTest, SinkRecordsHistogramAndSlowLog) {
  obs::MetricsRegistry registry;
  ProfileSink sink(/*slow_threshold_ns=*/std::uint64_t{0});
  sink.RegisterWith(&registry);

  auto result =
      query::Session(store_, dict_).Query("SELECT ?x WHERE { ?x <p1> ?y }");
  ASSERT_TRUE(result.ok());
  sink.Record(result.value().profile, "SELECT ?x WHERE { ?x <p1> ?y }");

  // The sparql class histogram counted it...
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 1u);
  EXPECT_EQ(sink.histogram(QueryKind::kBgp)->Snapshot().count, 0u);
  // ...and with threshold 0 the slow log captured it, text included.
  auto entries = sink.slow_queries().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].kind, obs::kSlowQueryKindSparql);
  EXPECT_EQ(entries[0].rows_out, 1u);
  EXPECT_EQ(entries[0].patterns, 1u);
  EXPECT_EQ(entries[0].q_error_x1000, 1000u);  // q-error exactly 1
  EXPECT_EQ(entries[0].text, "SELECT ?x WHERE { ?x <p1> ?y }");

  // The registry JSON includes both the histograms and the slow log.
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("hexa_query_sparql_latency_ns"), std::string::npos);
  EXPECT_NE(json.find("\"slow_queries\": {"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"sparql\""), std::string::npos);
  registry.AttachSlowQueryLog(nullptr);  // detach before sink dies
}

TEST_F(QueryProfileTest, SinkThresholdFiltersFastQueries) {
  // An unreachable threshold keeps the ring empty but still counts the
  // query in its class histogram.
  ProfileSink sink(std::uint64_t{1} << 62);
  auto result =
      query::Session(store_, dict_).Query("SELECT ?x WHERE { ?x <p1> ?y }");
  ASSERT_TRUE(result.ok());
  sink.Record(result.value().profile, "q");
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 1u);
  EXPECT_EQ(sink.slow_queries().TotalRecorded(), 0u);
}

TEST_F(QueryProfileTest, SlowQueryTextTruncates) {
  ProfileSink sink(std::uint64_t{0});
  QueryProfile profile;
  profile.kind = QueryKind::kBgp;
  profile.total_ns = 1;
  const std::string long_text(obs::kSlowQueryTextBytes + 100, 'q');
  sink.Record(profile, long_text);
  auto entries = sink.slow_queries().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].text.size(), obs::kSlowQueryTextBytes);
}

// -- Mid-delta q-error bound against the churn oracle ---------------------

TEST(QueryProfileDeltaTest, MidDeltaQErrorStaysBoundedOnUniformData) {
  // 100 p2 triples in the base, then stage 20 more plus tombstone 10:
  // the delta-aware EstimateMatches keeps per-pattern estimates within
  // the uniform-selectivity model, so the q-error of the single-pattern
  // query stays pinned at 1 (estimate == actual row count) even
  // mid-delta. The pinned evaluation also records a pin duration.
  Dictionary dict;
  DeltaHexastore store(/*compact_threshold=*/1u << 20);
  const Id p2 = dict.Intern(Term::Iri("p2"));
  auto node = [&](const std::string& prefix, int i) {
    return dict.Intern(Term::Iri(prefix + std::to_string(i)));
  };
  IdTripleVec base;
  for (int i = 0; i < 100; ++i) {
    base.push_back(IdTriple{node("s", i), p2, node("x", i % 10)});
  }
  std::sort(base.begin(), base.end());
  store.BulkLoad(base);
  for (int i = 0; i < 20; ++i) {
    store.Insert(IdTriple{node("t", i), p2, node("y", i)});
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Erase(base[static_cast<std::size_t>(i)]));
  }
  ASSERT_GT(store.StagedOps(), 0u);

  query::Session session(store, dict,
                         {.pin = query::PinPolicy::kLinearizable});
  auto pinned = session.EvalBgp({TP(V("s"), B("p2"), V("o"))});
  ASSERT_TRUE(pinned.ok());
  const ResultSet& r = pinned.value().set;
  const QueryProfile& profile = pinned.value().profile;
  EXPECT_EQ(r.rows.size(), 110u);  // churn oracle: 100 + 20 - 10
  ASSERT_EQ(profile.patterns.size(), 1u);
  EXPECT_EQ(profile.patterns[0].estimated, 110u);
  EXPECT_DOUBLE_EQ(profile.MaxQError(), 1.0);
  EXPECT_GT(profile.pin_ns, 0u);
  EXPECT_EQ(profile.total_ns, profile.parse_ns + profile.pin_ns);
}

}  // namespace
}  // namespace hexastore
