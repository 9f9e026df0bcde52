// Tests for the normalized-BGP plan cache (query/plan_cache.h): key
// canonicalization, stamp fast path, q-error invalidation after churn
// (including ErasePattern), LRU eviction, and the oracle check that a
// cache-served query returns byte-identical results to a fresh plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "query/pattern.h"
#include "query/plan_cache.h"
#include "query/result_json.h"
#include "query/session.h"

namespace hexastore {
namespace {

TriplePattern Pat(const std::string& s, const std::string& p,
                  const std::string& o) {
  auto slot = [](const std::string& t) {
    return t[0] == '?' ? PatternTerm::Variable(t.substr(1))
                       : PatternTerm::Bound(Term::Iri(t));
  };
  return TriplePattern{slot(s), slot(p), slot(o)};
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // p1 has 4 triples, p2 has 2: the planner starts from p2.
    for (int i = 0; i < 4; ++i) {
      Add("s" + std::to_string(i), "p1", "o");
    }
    Add("s0", "p2", "t");
    Add("s1", "p2", "t");
  }

  void Add(const std::string& s, const std::string& p,
           const std::string& o) {
    store_.Insert(dict_.Encode(Triple{Term::Iri("http://x/" + s),
                                      Term::Iri("http://x/" + p),
                                      Term::Iri("http://x/" + o)}));
  }

  CompiledBgp Compile(const std::vector<TriplePattern>& patterns) {
    return CompileBgp(patterns, dict_);
  }

  Dictionary dict_;
  DeltaHexastore store_;
};

TEST_F(PlanCacheTest, CanonicalKeyIgnoresVariableNames) {
  // Same shape, different variable spellings: CompileBgp interns
  // positionally, so the canonical keys collide (that is the point).
  CompiledBgp a = Compile(
      {Pat("?x", "http://x/p1", "?y"), Pat("?x", "http://x/p2", "?z")});
  CompiledBgp b = Compile(
      {Pat("?s", "http://x/p1", "?o"), Pat("?s", "http://x/p2", "?v")});
  EXPECT_EQ(PlanCache::CanonicalKey(a), PlanCache::CanonicalKey(b));

  // Different join structure (second pattern joins on the object):
  // different key.
  CompiledBgp c = Compile(
      {Pat("?x", "http://x/p1", "?y"), Pat("?y", "http://x/p2", "?z")});
  EXPECT_NE(PlanCache::CanonicalKey(a), PlanCache::CanonicalKey(c));

  // Different constants: different key.
  CompiledBgp d = Compile(
      {Pat("?x", "http://x/p2", "?y"), Pat("?x", "http://x/p2", "?z")});
  EXPECT_NE(PlanCache::CanonicalKey(a), PlanCache::CanonicalKey(d));
}

TEST_F(PlanCacheTest, EqualStampIsAHitUnequalStampRevalidates) {
  PlanCache cache;
  CompiledBgp bgp = Compile(
      {Pat("?x", "http://x/p1", "?y"), Pat("?x", "http://x/p2", "?z")});
  bool hit = true;
  std::vector<std::size_t> first =
      cache.Plan(store_, bgp, PlanCacheStamp{1, 0}, nullptr, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 1u);

  // Same stamp: served without validation probes.
  std::vector<std::size_t> second =
      cache.Plan(store_, bgp, PlanCacheStamp{1, 0}, nullptr, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(second, first);
  EXPECT_EQ(cache.hits(), 1u);

  // Drifted stamp but unchanged store: probes run, plan survives.
  std::vector<std::size_t> third =
      cache.Plan(store_, bgp, PlanCacheStamp{1, 7}, nullptr, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(third, first);
  EXPECT_EQ(cache.invalidations(), 0u);
}

TEST_F(PlanCacheTest, EstimateDriftPastThresholdInvalidates) {
  PlanCache cache;
  CompiledBgp bgp = Compile(
      {Pat("?x", "http://x/p1", "?y"), Pat("?x", "http://x/p2", "?z")});
  cache.Plan(store_, bgp, PlanCacheStamp{1, 0});

  // Grow p2 from 2 to 12 triples: q-error 6 > threshold 2.
  for (int i = 0; i < 10; ++i) {
    Add("n" + std::to_string(i), "p2", "t");
  }
  bool hit = true;
  cache.Plan(store_, bgp, PlanCacheStamp{1, 10}, nullptr, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.misses(), 1u);  // an invalidation is not a miss

  // The replanned entry recorded the new estimates: next drifted-stamp
  // lookup validates cleanly.
  cache.Plan(store_, bgp, PlanCacheStamp{1, 11}, nullptr, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST_F(PlanCacheTest, SlowDriftAccumulatesAgainstPlanTimeBaseline) {
  PlanCache cache;
  CompiledBgp bgp = Compile({Pat("?x", "http://x/p2", "?z")});
  cache.Plan(store_, bgp, PlanCacheStamp{1, 0});  // p2 estimate: 2

  // Each step stays within the 2x threshold of the previous probe, but
  // the baseline must remain the PLAN-TIME estimate, so the cumulative
  // drift eventually invalidates.
  std::uint64_t stamp = 1;
  bool invalidated = false;
  for (int round = 0; round < 6 && !invalidated; ++round) {
    Add("slow" + std::to_string(round), "p2", "t");  // +1 per round
    bool hit = false;
    cache.Plan(store_, bgp, PlanCacheStamp{1, ++stamp}, nullptr, &hit);
    invalidated = !hit;
  }
  // 2 -> 8 triples in +1 steps never doubles between probes, yet must
  // cross q-error 2.0 relative to the plan-time estimate of 2.
  EXPECT_TRUE(invalidated);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST_F(PlanCacheTest, ErasePatternInvalidates) {
  PlanCache cache;
  CompiledBgp bgp = Compile(
      {Pat("?x", "http://x/p1", "?y"), Pat("?x", "http://x/p2", "?z")});
  cache.Plan(store_, bgp, PlanCacheStamp{1, 0});

  // Wipe p1 (4 triples -> 0): drift 4x on the first pattern.
  auto p1 = dict_.TryEncode(Triple{Term::Iri("http://x/s0"),
                                   Term::Iri("http://x/p1"),
                                   Term::Iri("http://x/o")});
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(store_.ErasePattern(IdPattern{kInvalidId, p1->p, kInvalidId}),
            4u);

  bool hit = true;
  cache.Plan(store_, bgp, PlanCacheStamp{2, 0}, nullptr, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST_F(PlanCacheTest, LruEvictionAtCapacity) {
  PlanCacheOptions options;
  options.capacity = 2;
  PlanCache cache(options);
  CompiledBgp a = Compile({Pat("?x", "http://x/p1", "?y")});
  CompiledBgp b = Compile({Pat("?x", "http://x/p2", "?y")});
  CompiledBgp c = Compile({Pat("http://x/s0", "?p", "?y")});
  cache.Plan(store_, a, PlanCacheStamp{1, 0});
  cache.Plan(store_, b, PlanCacheStamp{1, 0});
  // Touch `a` so `b` is the LRU victim when `c` arrives.
  cache.Plan(store_, a, PlanCacheStamp{1, 0});
  cache.Plan(store_, c, PlanCacheStamp{1, 0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  bool hit = false;
  cache.Plan(store_, a, PlanCacheStamp{1, 0}, nullptr, &hit);
  EXPECT_TRUE(hit);
  cache.Plan(store_, b, PlanCacheStamp{1, 0}, nullptr, &hit);
  EXPECT_FALSE(hit) << "evicted entry must be re-planned";
}

// The oracle: under write churn, a Session answering through the cache
// must return byte-identical results to a freshly-planned execution of
// the same query against the same published state.
TEST_F(PlanCacheTest, CachedPlanMatchesFreshPlanUnderChurn) {
  PlanCache cache;
  query::SessionOptions options;
  options.pin = query::PinPolicy::kLinearizable;
  options.plan_cache = &cache;
  query::Session session(store_, dict_, options);

  const std::string query =
      "SELECT ?x ?z WHERE { ?x <http://x/p1> ?y . ?x <http://x/p2> ?z } "
      "ORDER BY ?x";
  for (int round = 0; round < 8; ++round) {
    // Churn both predicates, then publish.
    Add("c" + std::to_string(round), "p1", "o");
    Add("c" + std::to_string(round), "p2", "t");
    if (round % 3 == 2) {
      store_.Erase(dict_.Encode(Triple{
          Term::Iri("http://x/c" + std::to_string(round - 1)),
          Term::Iri("http://x/p2"), Term::Iri("http://x/t")}));
    }
    auto snapshot = store_.GetSnapshot();

    auto cached = session.Query(query);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    // A cache-less Session over the snapshot itself plans afresh.
    auto fresh = query::Session(snapshot, dict_).Query(query);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(ResultSetToJson(cached.value().set, dict_),
              ResultSetToJson(fresh.value().set, dict_))
        << "round " << round;
  }
  EXPECT_GT(cache.hits() + cache.invalidations(), 0u);
}

}  // namespace
}  // namespace hexastore
