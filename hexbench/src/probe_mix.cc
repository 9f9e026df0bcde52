// probe_mix: short selective queries whose constants come from the loaded
// data by a seeded Zipf draw, through a Session with the shared plan
// cache over a leveled DeltaHexastore whose published delta holds several
// sealed, filtered L0 runs. Almost every query is a new plan-cache key,
// so parsing, planning's estimate probes, the active ▷ L0 ▷ L1 ▷ base
// chain and early exit do the work. Answers are checked against the
// benchmark's own sorted copies of the store's triples.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "data/barton_generator.h"
#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "query/result_json.h"
#include "workloads.h"

namespace hexbench {

namespace hx = hexastore;

namespace {

// Sorted copies of the store's triples in three orders: the independent
// oracle every answer is checked against.
class TripleOracle {
 public:
  explicit TripleOracle(std::vector<hx::IdTriple> triples)
      : spo_(std::move(triples)) {
    std::sort(spo_.begin(), spo_.end(), Spo);
    pos_ = spo_;
    std::sort(pos_.begin(), pos_.end(), Pos);
  }

  const std::vector<hx::IdTriple>& all() const { return spo_; }

  bool Contains(const hx::IdTriple& t) const {
    return std::binary_search(spo_.begin(), spo_.end(), t, Spo);
  }
  // Triples (s, p, *) or, with p == 0, (s, *, *).
  std::vector<hx::IdTriple> WithSubject(hx::Id s, hx::Id p) const {
    auto lo = std::lower_bound(spo_.begin(), spo_.end(),
                               hx::IdTriple{s, p, 0}, Spo);
    std::vector<hx::IdTriple> out;
    for (; lo != spo_.end() && lo->s == s && (p == 0 || lo->p == p); ++lo) {
      out.push_back(*lo);
    }
    return out;
  }
  // Triples (*, p, o) or, with o == 0, (*, p, *).
  std::vector<hx::IdTriple> WithPredicate(hx::Id p, hx::Id o) const {
    auto lo = std::lower_bound(pos_.begin(), pos_.end(),
                               hx::IdTriple{0, p, o}, Pos);
    std::vector<hx::IdTriple> out;
    for (; lo != pos_.end() && lo->p == p && (o == 0 || lo->o == o); ++lo) {
      out.push_back(*lo);
    }
    return out;
  }
  std::size_t CountPredicateObject(hx::Id p, hx::Id o) const {
    auto [lo, hi] = std::equal_range(pos_.begin(), pos_.end(),
                                     hx::IdTriple{0, p, o}, PoOnly);
    return static_cast<std::size_t>(hi - lo);
  }

 private:
  static bool Spo(const hx::IdTriple& a, const hx::IdTriple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  }
  static bool Pos(const hx::IdTriple& a, const hx::IdTriple& b) {
    return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
  }
  static bool PoOnly(const hx::IdTriple& a, const hx::IdTriple& b) {
    return std::tie(a.p, a.o) < std::tie(b.p, b.o);
  }

  std::vector<hx::IdTriple> spo_;
  std::vector<hx::IdTriple> pos_;
};

using Rows = std::vector<std::vector<hx::Id>>;

// One drawn probe: the text, the patterns the planner will estimate, and
// the oracle's answer.
struct Probe {
  Probe(const char* k, std::string t) : kind(k), text(std::move(t)) {}

  const char* kind;
  std::string text;
  std::vector<hx::IdPattern> patterns;
  bool fully_bound = false;
  // Exact expected rows (sorted), or, for LIMIT probes, the candidate set
  // the single row must come from.
  Rows expected;
  bool limit = false;
};

Rows ResultRows(const hx::ResultSet& set) {
  Rows rows;
  for (const hx::Row& row : set.rows) {
    rows.emplace_back(row.begin(), row.end());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class ProbeDrawer {
 public:
  ProbeDrawer(const TripleOracle& oracle, const hx::Dictionary& dict,
              std::uint64_t seed)
      : oracle_(oracle),
        dict_(dict),
        rng_(seed),
        triple_zipf_(oracle.all().size(), kTripleTheta),
        rank_(oracle.all().size()) {
    // Hot triples are a seeded random subset, not the smallest ids.
    for (std::size_t i = 0; i < rank_.size(); ++i) {
      rank_[i] = i;
    }
    for (std::size_t i = rank_.size(); i > 1; --i) {
      std::swap(rank_[i - 1], rank_[rng_.Below(i)]);
    }
    // Predicates by descending frequency: LIMIT 1 favours large ones.
    std::map<hx::Id, std::size_t> freq;
    for (const hx::IdTriple& t : oracle.all()) {
      ++freq[t.p];
    }
    for (const auto& [p, n] : freq) {
      predicates_.push_back({n, p});
    }
    std::sort(predicates_.rbegin(), predicates_.rend());
    predicate_zipf_ =
        std::make_unique<Zipf>(predicates_.size(), kPredicateTheta);
  }

  /// The fixed round: the same seven probe kinds in the same order.
  std::vector<Probe> Round() {
    std::vector<Probe> round;
    const hx::IdTriple a = Draw();
    const hx::IdTriple b = Draw();
    round.push_back(PointCount("point_hit", a));
    round.push_back(PointCount("point_mixed", {a.s, a.p, b.o}));

    Probe so{"s_p_var", "SELECT ?o WHERE { " + T(a.s) + " " + T(a.p) +
                            " ?o }"};
    so.patterns = {{a.s, a.p, 0}};
    for (const hx::IdTriple& t : oracle_.WithSubject(a.s, a.p)) {
      so.expected.push_back({t.o});
    }
    round.push_back(std::move(so));

    const hx::IdTriple c = Draw();
    Probe sp{"s_var_o", "SELECT ?p WHERE { " + T(c.s) + " ?p " + T(c.o) +
                            " }"};
    sp.patterns = {{c.s, 0, c.o}};
    for (const hx::IdTriple& t : oracle_.WithSubject(c.s, 0)) {
      if (t.o == c.o) {
        sp.expected.push_back({t.p});
      }
    }
    round.push_back(std::move(sp));

    const hx::Id big = predicates_[predicate_zipf_->Draw(rng_)].second;
    Probe lim{"limit1", "SELECT ?s ?o WHERE { ?s " + T(big) + " ?o } LIMIT 1"};
    lim.patterns = {{0, big, 0}};
    lim.limit = true;
    for (const hx::IdTriple& t : oracle_.WithPredicate(big, 0)) {
      lim.expected.push_back({t.s, t.o});
    }
    round.push_back(std::move(lim));

    const hx::IdTriple d = Draw();
    Probe cnt{"count_p_o", "SELECT (COUNT(*) AS ?n) WHERE { ?s " + T(d.p) +
                               " " + T(d.o) + " }"};
    cnt.patterns = {{0, d.p, d.o}};
    cnt.expected = {{oracle_.CountPredicateObject(d.p, d.o)}};
    round.push_back(std::move(cnt));

    // Two-pattern join from a bound subject: (s p1 ?x . ?x p2 ?y), p2 one
    // of the predicates a drawn ?x carries (or p1 when it has none).
    const hx::IdTriple e = Draw();
    const std::vector<hx::IdTriple> next = oracle_.WithSubject(e.o, 0);
    const hx::Id p2 = next.empty() ? e.p : next[rng_.Below(next.size())].p;
    Probe join{"join2", "SELECT ?x ?y WHERE { " + T(e.s) + " " + T(e.p) +
                            " ?x . ?x " + T(p2) + " ?y }"};
    join.patterns = {{e.s, e.p, 0}, {0, p2, 0}};
    for (const hx::IdTriple& t : oracle_.WithSubject(e.s, e.p)) {
      for (const hx::IdTriple& u : oracle_.WithSubject(t.o, p2)) {
        join.expected.push_back({t.o, u.o});
      }
    }
    round.push_back(std::move(join));

    for (Probe& p : round) {
      if (!p.limit) {
        std::sort(p.expected.begin(), p.expected.end());
      }
    }
    return round;
  }

 private:
  static constexpr double kTripleTheta = 0.5;
  static constexpr double kPredicateTheta = 0.8;

  hx::IdTriple Draw() { return oracle_.all()[rank_[triple_zipf_.Draw(rng_)]]; }
  std::string T(hx::Id id) const { return dict_.term(id).ToNTriples(); }

  Probe PointCount(const char* kind, const hx::IdTriple& t) const {
    Probe p{kind, "SELECT (COUNT(*) AS ?n) WHERE { " + T(t.s) + " " + T(t.p) +
                      " " + T(t.o) + " }"};
    p.patterns = {{t.s, t.p, t.o}};
    p.fully_bound = true;
    p.expected = {{oracle_.Contains(t) ? 1u : 0u}};
    return p;
  }

  const TripleOracle& oracle_;
  const hx::Dictionary& dict_;
  Rand rng_;
  Zipf triple_zipf_;
  std::vector<std::size_t> rank_;
  std::vector<std::pair<std::size_t, hx::Id>> predicates_;
  std::unique_ptr<Zipf> predicate_zipf_;
};

// Checks one answer; returns false (after logging) on a mismatch.
bool CheckProbe(const Probe& probe, const hx::ResultSet& set,
                RunResult* res) {
  Rows got = ResultRows(set);
  if (!probe.limit) {
    if (got != probe.expected) {
      res->Mismatch(std::string(probe.kind) + ": " + probe.text + " gave " +
                    std::to_string(got.size()) + " rows, oracle has " +
                    std::to_string(probe.expected.size()));
      return false;
    }
    return true;
  }
  // LIMIT 1: non-empty exactly when the oracle's match is, and the row
  // must be one of the matches.
  const bool ok =
      got.size() == std::min<std::size_t>(1, probe.expected.size()) &&
      (got.empty() || std::find(probe.expected.begin(), probe.expected.end(),
                                got[0]) != probe.expected.end());
  if (!ok) {
    res->Mismatch(std::string(probe.kind) + ": " + probe.text);
  }
  return ok;
}

}  // namespace

RunResult RunProbeMix(const Options& options) {
  RunResult res;
  const std::size_t barton_n = options.tiny() ? 20000 : 200000;
  const std::size_t lubm_n = options.tiny() ? 20000 : 200000;
  const std::size_t threshold = options.tiny() ? 1024 : 16384;
  LayerFigures layers;

  // ---- set-up: inputs, base, staged runs, oracle ------------------------
  std::vector<hx::Triple> triples =
      hx::data::BartonGenerator(
          hx::data::BartonOptions{.seed = BartonSeed(options.seed)})
          .Generate(barton_n);
  std::vector<hx::Triple> lubm =
      hx::data::LubmGenerator(
          hx::data::LubmOptions{.seed = LubmSeed(options.seed)})
          .Generate(lubm_n);
  triples.insert(triples.end(), lubm.begin(), lubm.end());
  lubm.clear();
  hx::Dictionary dict;
  std::vector<hx::IdTriple> ids;
  ids.reserve(triples.size());
  double t0 = Now();
  for (const hx::Triple& t : triples) {
    ids.push_back(dict.Encode(t));
  }
  layers.encode.Add(Now() - t0, triples.size());
  triples.clear();
  triples.shrink_to_fit();
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // A seeded shuffle splits the triples into the base and the staged
  // inserts; every 6th base triple (in shuffled order) is erased while
  // staging. 3.5 thresholds of ops leave three sealed L0 runs plus a
  // half-full active buffer (the fold comes at four runs).
  Rand split(options.seed ^ 0x5157u);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[split.Below(i)]);
  }
  const std::size_t staged_ops = threshold * 7 / 2;
  const std::size_t inserts = staged_ops * 5 / 6;
  const std::size_t erases = staged_ops - inserts;
  hx::IdTripleVec base(ids.begin(), ids.end() - inserts);
  std::vector<hx::IdTriple> fresh(ids.end() - inserts, ids.end());

  hx::DeltaOptions delta_options;
  delta_options.compact_threshold = threshold;
  delta_options.l0_run_limit = 4;
  delta_options.filter_bits_per_key = 10;
  hx::DeltaHexastore store(delta_options);
  store.BulkLoad(base);

  std::vector<hx::IdTriple> erased;
  t0 = Now();
  for (std::size_t i = 0, e = 0; i < inserts; ++i) {
    store.Insert(fresh[i]);
    if (i % 5 == 4 && e < erases) {
      store.Erase(base[e * 6]);
      erased.push_back(base[e * 6]);
      ++e;
    }
  }
  const double stage_s = Now() - t0;
  const std::size_t stage_ops = inserts + erased.size();
  layers.insert.Add(stage_s, stage_ops);
  store.GetSnapshot();  // publish base + runs + active

  std::sort(erased.begin(), erased.end());
  std::vector<hx::IdTriple> final_set;
  final_set.reserve(ids.size());
  for (const hx::IdTriple& t : ids) {
    if (!std::binary_search(erased.begin(), erased.end(), t)) {
      final_set.push_back(t);
    }
  }
  ids.clear();
  ids.shrink_to_fit();
  TripleOracle oracle(std::move(final_set));
  if (store.size() != oracle.all().size()) {
    res.Mismatch("store size " + std::to_string(store.size()) +
                 " != oracle " + std::to_string(oracle.all().size()));
  }
  ProbeDrawer drawer(oracle, dict, options.seed * 0x2545F4914F6CDD1Dull + 7);

  // The write path runs on a second store with the same options (a 50k
  // slice of the base plus the staged triples), so the measured store's
  // published runs never change. Between query segments it takes one
  // segment of staged ops, cycling through erasing and re-inserting the
  // staged triples.
  hx::DeltaHexastore write_store(delta_options);
  {
    hx::IdTripleVec slice(base.begin(),
                          base.begin() + std::min<std::size_t>(50000, base.size()));
    slice.insert(slice.end(), fresh.begin(), fresh.end());
    write_store.BulkLoad(slice);
  }
  const std::size_t write_store_size = write_store.size();
  SegmentRates write_rates;
  constexpr std::size_t kWriteSegment = 2048;
  std::size_t write_cursor = 0;
  auto write_segment = [&]() {
    for (std::size_t i = 0; i < kWriteSegment; ++i) {
      const std::size_t at = write_cursor++ % (2 * fresh.size());
      const hx::IdTriple& t = fresh[at % fresh.size()];
      const double w0 = Now();
      at < fresh.size() ? write_store.Erase(t) : write_store.Insert(t);
      write_rates.Add(1, Now() - w0);
      if (write_cursor % (2 * fresh.size()) == 0 &&
          write_store.size() != write_store_size) {
        res.Mismatch("write store size after a full cycle differs");
      }
    }
    write_rates.Close();
  };

  hx::PlanCache cache;
  hx::ProfileSink sink(~std::uint64_t{0});
  hx::query::Session session(
      store, dict,
      {.pin = hx::query::PinPolicy::kWaitFree, .sink = &sink,
       .plan_cache = &cache});
  const hx::DeltaStats before = store.Stats();
  const double setup_s = SinceStart();
  std::fprintf(stderr,
               "probe_mix: %zu triples, %zu staged ops, %zu L0 runs, "
               "set-up %.2f s\n",
               store.size(), stage_ops, before.l0_runs, setup_s);

  // ---- measured phase: whole rounds of seven probes ---------------------
  Calibrator calib;
  calib.Run();
  double query_s = 0;
  SegmentRates segment_rates;  // one segment per kSegmentRounds rounds
  constexpr std::uint64_t kSegmentRounds = 25;
  std::uint64_t rounds = 0;
  const double start = Now();
  while (rounds == 0 || rounds % kSegmentRounds != 0 ||
         Now() - start < options.seconds) {
    for (const Probe& probe : drawer.Round()) {
      const double q0 = Now();
      auto result = session.Query(probe.text);
      const double elapsed = Now() - q0;
      query_s += elapsed;
      segment_rates.Add(1, elapsed);
      ++res.attempted;
      if (!result.ok()) {
        ++res.failed;
        res.Mismatch(std::string(probe.kind) + ": " +
                     result.status().ToString());
        continue;
      }
      CheckProbe(probe, result.value().set, &res);
      if (options.trace) {
        layers.AddProfile(result.value());
        const double j0 = Now();
        const std::string json =
            hx::ResultSetToJson(result.value().set, dict);
        layers.json.Add(Now() - j0);
        if (json.empty()) {
          res.Mismatch(std::string(probe.kind) + ": empty JSON");
        }
        const hx::DeltaHexastore::Snapshot view = store.AcquireReadHandle();
        for (const hx::IdPattern& p : probe.patterns) {
          const double e0 = Now();
          const std::uint64_t estimate = view.EstimateMatches(p);
          layers.estimate.Add(Now() - e0);
          for (hx::Id id : {p.s, p.p, p.o}) {
            if (id != 0) {
              const hx::Term& term = dict.term(id);
              const double l0 = Now();
              const hx::Id back = dict.Lookup(term);
              layers.lookup.Add(Now() - l0);
              if (back != id) {
                res.Mismatch("dictionary round trip");
              }
            }
          }
          if (probe.fully_bound) {
            const hx::IdTriple t{p.s, p.p, p.o};
            const double c0 = Now();
            const bool present = view.Contains(t);
            layers.contains.Add(Now() - c0);
            if (present != oracle.Contains(t) || estimate > 1) {
              res.Mismatch("Contains/EstimateMatches on a bound triple");
            }
          }
        }
      }
    }
    ++rounds;
    if (rounds % kSegmentRounds == 0) {
      segment_rates.Close();
      calib.Run();
      write_segment();
    }
  }
  const hx::DeltaStats after = store.Stats();
  const double qps = calib.Rate(segment_rates.MedianRate());
  const double bytes_per_triple =
      static_cast<double>(store.MemoryBytes()) / store.size();
  std::fprintf(stderr,
               "probe_mix: %llu rounds, %.1f queries/s raw, plan-cache "
               "hits %llu misses %llu, calib %.4f s over %zu runs\n",
               static_cast<unsigned long long>(rounds),
               static_cast<double>(res.attempted) / query_s,
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               calib.MedianS(), calib.runs());

  if (options.trace) {
    layers.filter_skip_rate =
        Ratio(static_cast<double>(after.filter_skips - before.filter_skips),
              static_cast<double>(after.filter_probes - before.filter_probes));
    layers.l0_runs = static_cast<double>(after.l0_runs);
    layers.write_amp = after.WriteAmplification();
    layers.drains = static_cast<double>(after.compactions);
    layers.core_bytes_per_triple =
        static_cast<double>(store.base()->MemoryBytes()) /
        store.base()->size();
    std::fprintf(stderr, "probe_mix: traced queries_per_s %.3f\n", qps);
    layers.Emit(calib.MedianS(), &res);
    return res;
  }

  const std::size_t expected_size = oracle.all().size();

  // ---- restart: snapshot save (compacts the runs) and 5 reloads ---------
  SnapshotReloader reloader(
      options, "probe", dict, &store,
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
      [expected_size](const hx::ResultSet& set) {
        return set.rows.size() == 1 && set.rows[0].size() == 1 &&
               set.rows[0][0] == expected_size;
      },
      &res);
  for (std::size_t i = 0; i < (options.tiny() ? 1u : 5u); ++i) {
    calib.Run();
    reloader.Reload();
  }

  PrintRaw(setup_s, segment_rates.MedianRate(), write_rates.MedianRate(),
           reloader.MedianS(), calib.MedianS());
  res.Add("setup_s", calib.Seconds(setup_s), "s");
  res.Add("queries_per_s", qps, "queries/s");
  res.Add("bytes_per_triple", bytes_per_triple, "B");
  res.Add("write_triples_per_s", calib.Rate(write_rates.MedianRate()),
          "triples/s");
  res.Add("restart_s", calib.Seconds(reloader.MedianS()), "s");
  res.Add("log_bytes_per_triple", reloader.bytes_per_triple(), "B");
  return res;
}

}  // namespace hexbench
