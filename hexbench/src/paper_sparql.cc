// paper_sparql: the paper's Barton and LUBM figure queries (§5.2) as
// SPARQL through a Session (wait-free pin, shared plan cache) over a
// published, bulk-loaded DeltaHexastore with an empty delta, in
// round-robin passes. Each query's rows are checked against the
// workload::*Oracle rows over a separately built TripleTableStore.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <unistd.h>

#include "baseline/triple_table.h"
#include "data/barton_generator.h"
#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "io/snapshot.h"
#include "query/result_json.h"
#include "workload/barton_queries.h"
#include "workload/lubm_queries.h"
#include "workloads.h"

namespace hexbench {

namespace hx = hexastore;
namespace wl = hexastore::workload;

namespace {

using CanonRow = std::vector<std::uint64_t>;
using CanonRows = std::vector<CanonRow>;

// Maps one result row to the group's canonical row layout.
using Shape = std::function<CanonRow(const hx::ResultSet&, const hx::Row&)>;

struct PaperQuery {
  std::string name;
  std::string text;
  Shape shape;
  std::size_t group;
};

// Expected rows of one paper query; several SPARQL queries may feed one
// group when the subset needs a UNION spelled as separate queries.
struct Group {
  std::string name;
  CanonRows expected;
  bool dedup = false;
};

std::uint64_t Cell(const hx::ResultSet& set, const hx::Row& row,
                   const char* var) {
  const hx::VarId c = set.Column(var);
  return c == hx::kNoVar ? ~std::uint64_t{0}
                         : row[static_cast<std::size_t>(c)];
}

Shape Columns(std::vector<const char*> vars) {
  return [vars](const hx::ResultSet& set, const hx::Row& row) {
    CanonRow out;
    for (const char* v : vars) {
      out.push_back(Cell(set, row, v));
    }
    return out;
  };
}

void SortRows(CanonRows* rows, bool dedup) {
  std::sort(rows->begin(), rows->end());
  if (dedup) {
    rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  }
}

template <typename Rows>
CanonRows CountRowsCanon(const Rows& rows) {
  CanonRows out;
  for (const auto& [id, n] : rows) {
    out.push_back({id, n});
  }
  return out;
}

// The queries the SPARQL subset can express, with their expected rows.
// Left out (README.md): BQ3 and BQ4 need HAVING over a store-wide
// popularity count, BQ6 needs a UNION before its GROUP BY.
void BuildQueries(const hx::Dictionary& dict, const hx::TripleStore& oracle,
                  std::vector<PaperQuery>* queries,
                  std::vector<Group>* groups) {
  const wl::BartonIds b = wl::BartonIds::Resolve(dict);
  const wl::LubmIds l = wl::LubmIds::Resolve(dict);
  auto t = [&dict](hx::Id id) { return dict.term(id).ToNTriples(); };
  auto add_group = [groups](std::string name, CanonRows expected,
                            bool dedup) {
    SortRows(&expected, dedup);
    groups->push_back({std::move(name), std::move(expected), dedup});
    return groups->size() - 1;
  };
  auto add = [queries](std::string name, std::string text, Shape shape,
                       std::size_t group) {
    queries->push_back({std::move(name), std::move(text), std::move(shape),
                        group});
  };

  std::size_t g = add_group("BQ1", CountRowsCanon(wl::BartonQ1Oracle(oracle, b)),
                            false);
  add("BQ1",
      "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s " + t(b.prop_type) +
          " ?o } GROUP BY ?o",
      Columns({"o", "n"}), g);

  g = add_group("BQ2",
                CountRowsCanon(wl::BartonQ2Oracle(oracle, b, nullptr)), false);
  add("BQ2",
      "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s " + t(b.prop_type) + " " +
          t(b.val_text) + " . ?s ?p ?o } GROUP BY ?p",
      Columns({"p", "n"}), g);

  CanonRows bq5;
  for (const auto& [s, ty] : wl::BartonQ5Oracle(oracle, b)) {
    bq5.push_back({s, ty});
  }
  g = add_group("BQ5", std::move(bq5), false);
  add("BQ5",
      "SELECT DISTINCT ?s ?t WHERE { ?s " + t(b.prop_origin) + " " +
          t(b.val_dlc) + " . ?s " + t(b.prop_records) + " ?r . ?r " +
          t(b.prop_type) + " ?t . FILTER(?t != " + t(b.val_text) + ") }",
      Columns({"s", "t"}), g);

  // BQ7 is the paper's three-way join; the oracle lists the Encoding and
  // Type rows per subject, so the expected join is their cross product.
  std::map<hx::Id, std::pair<std::vector<hx::Id>, std::vector<hx::Id>>> bq7;
  for (const hx::IdTriple& row : wl::BartonQ7Oracle(oracle, b)) {
    auto& [enc, ty] = bq7[row.s];
    (row.p == b.prop_encoding ? enc : ty).push_back(row.o);
  }
  CanonRows bq7_rows;
  for (const auto& [s, lists] : bq7) {
    for (hx::Id e : lists.first) {
      for (hx::Id ty : lists.second) {
        bq7_rows.push_back({s, e, ty});
      }
    }
  }
  g = add_group("BQ7", std::move(bq7_rows), false);
  add("BQ7",
      "SELECT ?s ?e ?t WHERE { ?s " + t(b.prop_point) + " " + t(b.val_end) +
          " . ?s " + t(b.prop_encoding) + " ?e . ?s " + t(b.prop_type) +
          " ?t }",
      Columns({"s", "e", "t"}), g);

  const std::pair<const char*, hx::Id> related[] = {{"LQ1", l.course10},
                                                    {"LQ2", l.university0}};
  for (const auto& [name, object] : related) {
    CanonRows rows;
    for (const auto& [s, p] : wl::LubmRelatedToOracle(oracle, object)) {
      rows.push_back({s, p});
    }
    g = add_group(name, std::move(rows), false);
    add(name, "SELECT ?s ?p WHERE { ?s ?p " + t(object) + " }",
        Columns({"s", "p"}), g);
  }

  // LQ3 = subject side UNION object side, as two queries.
  CanonRows lq3;
  for (const hx::IdTriple& row : wl::LubmQ3Oracle(oracle, l.assoc_prof10)) {
    lq3.push_back({row.s, row.p, row.o});
  }
  g = add_group("LQ3", std::move(lq3), true);
  const hx::Id ap10 = l.assoc_prof10;
  add("LQ3/subject", "SELECT ?p ?o WHERE { " + t(ap10) + " ?p ?o }",
      [ap10](const hx::ResultSet& set, const hx::Row& row) {
        return CanonRow{ap10, Cell(set, row, "p"), Cell(set, row, "o")};
      },
      g);
  add("LQ3/object", "SELECT ?s ?p WHERE { ?s ?p " + t(ap10) + " }",
      [ap10](const hx::ResultSet& set, const hx::Row& row) {
        return CanonRow{Cell(set, row, "s"), Cell(set, row, "p"), ap10};
      },
      g);

  CanonRows lq4;
  for (const auto& [course, rows] : wl::LubmQ4Oracle(oracle, l)) {
    for (const auto& [x, r] : rows) {
      lq4.push_back({course, x, r});
    }
  }
  g = add_group("LQ4", std::move(lq4), false);
  add("LQ4",
      "SELECT ?c ?x ?r WHERE { " + t(ap10) + " " + t(l.prop_teacher_of) +
          " ?c . ?x ?r ?c }",
      Columns({"c", "x", "r"}), g);

  // LQ5 = the three degree predicates UNIONed, as three queries.
  CanonRows lq5;
  for (const auto& [uni, people] : wl::LubmQ5Oracle(oracle, l)) {
    for (hx::Id x : people) {
      lq5.push_back({uni, x});
    }
  }
  g = add_group("LQ5", std::move(lq5), true);
  const std::pair<const char*, hx::Id> degrees[] = {
      {"LQ5/ug", l.prop_ug_degree},
      {"LQ5/ms", l.prop_ms_degree},
      {"LQ5/phd", l.prop_phd_degree}};
  for (const auto& [name, degree] : degrees) {
    add(name,
        "SELECT DISTINCT ?u ?x WHERE { " + t(ap10) + " ?r ?u . ?u " +
            t(l.prop_type) + " " + t(l.class_university) + " . ?x " +
            t(degree) + " ?u }",
        Columns({"u", "x"}), g);
  }
}

// LQ3-LQ5 ask about AssociateProfessor10 of Department0.University0,
// which the generator emits only when it draws more than ten associate
// professors there: the LUBM seed is the first of LubmSeed(seed) + k,
// k = 0, 1, ..., whose prefix holds it.
std::uint64_t PaperLubmSeed(std::uint64_t seed) {
  const hx::Term target = hx::data::LubmGenerator::AssociateProfessorUri(0, 0, 10);
  for (std::uint64_t candidate = LubmSeed(seed);; ++candidate) {
    for (const hx::Triple& t :
         hx::data::LubmGenerator(hx::data::LubmOptions{.seed = candidate})
             .Generate(20000)) {
      if (t.subject == target) {
        return candidate;
      }
    }
  }
}

bool VocabularyPresent(const hx::Dictionary& dict) {
  const wl::BartonIds b = wl::BartonIds::Resolve(dict);
  const wl::LubmIds l = wl::LubmIds::Resolve(dict);
  for (hx::Id id : {b.prop_type, b.prop_origin, b.prop_records, b.prop_point,
                    b.prop_encoding, b.val_text, b.val_dlc, b.val_end,
                    l.prop_type, l.prop_teacher_of, l.prop_ug_degree,
                    l.prop_ms_degree, l.prop_phd_degree, l.class_university,
                    l.course10, l.university0, l.assoc_prof10}) {
    if (id == hx::kInvalidId) {
      return false;
    }
  }
  return true;
}

// The hand-coded Hexastore plans of the same paper queries on the base:
// the engine-free floor of one pass.
std::size_t RunHexaPass(const hx::Hexastore& base, const hx::Dictionary& dict) {
  const wl::BartonIds b = wl::BartonIds::Resolve(dict);
  const wl::LubmIds l = wl::LubmIds::Resolve(dict);
  std::size_t n = 0;
  n += wl::BartonQ1Hexa(base, b).size();
  n += wl::BartonQ2Hexa(base, b, nullptr).size();
  n += wl::BartonQ5Hexa(base, b).size();
  n += wl::BartonQ7Hexa(base, b).size();
  n += wl::LubmRelatedToHexa(base, l.course10).size();
  n += wl::LubmRelatedToHexa(base, l.university0).size();
  n += wl::LubmQ3Hexa(base, l.assoc_prof10).size();
  n += wl::LubmQ4Hexa(base, l).size();
  n += wl::LubmQ5Hexa(base, l).size();
  return n;
}

}  // namespace

RunResult RunPaperSparql(const Options& options) {
  RunResult res;
  const std::size_t barton_n = options.tiny() ? 20000 : 200000;
  const std::size_t lubm_n = options.tiny() ? 20000 : 200000;
  LayerFigures layers;

  // ---- set-up: inputs, store, oracle ------------------------------------
  std::vector<hx::Triple> triples =
      hx::data::BartonGenerator(
          hx::data::BartonOptions{.seed = BartonSeed(options.seed)})
          .Generate(barton_n);
  std::vector<hx::Triple> lubm =
      hx::data::LubmGenerator(
          hx::data::LubmOptions{.seed = PaperLubmSeed(options.seed)})
          .Generate(lubm_n);
  triples.insert(triples.end(), lubm.begin(), lubm.end());
  lubm.clear();

  hx::Dictionary dict;
  hx::IdTripleVec ids;
  ids.reserve(triples.size());
  double t0 = Now();
  for (const hx::Triple& tr : triples) {
    ids.push_back(dict.Encode(tr));
  }
  layers.encode.Add(Now() - t0, triples.size());
  triples.clear();
  triples.shrink_to_fit();
  if (!VocabularyPresent(dict)) {
    std::fprintf(stderr, "paper_sparql: query vocabulary missing\n");
    return res;
  }

  hx::DeltaHexastore store;
  store.BulkLoad(ids);
  store.GetSnapshot();  // publish, so wait-free handles see the load

  hx::TripleTableStore oracle;
  for (const hx::IdTriple& tr : ids) {
    oracle.Insert(tr);
  }
  std::vector<PaperQuery> queries;
  std::vector<Group> groups;
  BuildQueries(dict, oracle, &queries, &groups);

  hx::PlanCache cache;
  hx::ProfileSink sink(~std::uint64_t{0});
  hx::query::Session session(
      store, dict,
      {.pin = hx::query::PinPolicy::kWaitFree, .sink = &sink,
       .plan_cache = &cache});
  const double setup_s = SinceStart();
  std::fprintf(stderr,
               "paper_sparql: %zu triples, %zu queries, set-up %.2f s\n",
               store.size(), queries.size(), setup_s);

  // The restart's snapshot (the delta is empty, so saving compacts
  // nothing) and the write batches, both taken between query segments.
  SnapshotReloader reloader(
      options, "paper", dict, &store, queries[0].text,
      [&](const hx::ResultSet& set) {
        CanonRows rows;
        for (const hx::Row& row : set.rows) {
          rows.push_back(queries[0].shape(set, row));
        }
        SortRows(&rows, false);
        return rows == groups[queries[0].group].expected;
      },
      &res);
  SegmentRates load_rates;  // one segment per batch
  constexpr std::size_t kLoadBatch = 20000;
  std::size_t next_batch = 0;
  // Bulk-loads the next 20k-triple batch of the input into a fresh store.
  auto load_batch = [&]() {
    const std::size_t at = next_batch * kLoadBatch % (ids.size() - kLoadBatch);
    ++next_batch;
    const hx::IdTripleVec batch(ids.begin() + at, ids.begin() + at + kLoadBatch);
    hx::DeltaHexastore fresh;
    const double l0 = Now();
    fresh.BulkLoad(batch);
    load_rates.Add(kLoadBatch, Now() - l0);
    load_rates.Close();
    if (fresh.size() == 0) {
      res.Mismatch("bulk load into a fresh store left it empty");
    }
  };

  // ---- measured phase: whole passes until the time is spent -------------
  // Every segment boundary runs the kernel and one write batch; every
  // kReloadSegments-th also one reload.
  constexpr std::uint64_t kReloadSegments = 4;
  Calibrator calib;
  calib.Run();
  double query_s = 0;
  SegmentRates pass_rates;  // one segment per kSegmentPasses passes
  constexpr std::uint64_t kSegmentPasses = 4;
  std::uint64_t passes = 0;
  std::vector<CanonRows> got(groups.size());
  const double start = Now();
  while (passes == 0 || passes % kSegmentPasses != 0 ||
         Now() - start < options.seconds) {
    for (CanonRows& rows : got) {
      rows.clear();
    }
    for (const PaperQuery& q : queries) {
      const double q0 = Now();
      auto result = session.Query(q.text);
      const double elapsed = Now() - q0;
      query_s += elapsed;
      pass_rates.Add(1, elapsed);
      ++res.attempted;
      if (!result.ok()) {
        ++res.failed;
        res.Mismatch(q.name + ": " + result.status().ToString());
        continue;
      }
      const hx::ResultSet& set = result.value().set;
      for (const hx::Row& row : set.rows) {
        got[q.group].push_back(q.shape(set, row));
      }
      if (options.trace) {
        layers.AddProfile(result.value());
        const double j0 = Now();
        const std::string json = hx::ResultSetToJson(set, dict);
        layers.json.Add(Now() - j0);
        if (json.empty()) {
          res.Mismatch(q.name + ": empty JSON");
        }
      }
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      SortRows(&got[g], groups[g].dedup);
      if (got[g] != groups[g].expected) {
        res.Mismatch(groups[g].name + ": " + std::to_string(got[g].size()) +
                     " rows, oracle has " +
                     std::to_string(groups[g].expected.size()));
      }
    }
    if (options.trace) {
      const double h0 = Now();
      if (RunHexaPass(*store.base(), dict) == 0) {
        res.Mismatch("hand-coded plans returned nothing");
      }
      layers.paper_hexa_ms += (Now() - h0) * 1e3;
    }
    ++passes;
    if (passes % kSegmentPasses == 0) {
      pass_rates.Close();
      calib.Run();
      load_batch();
      if (passes / kSegmentPasses % kReloadSegments == 1) {
        reloader.Reload();
      }
    }
  }
  const double qps = calib.Rate(pass_rates.MedianRate());
  const double bytes_per_triple =
      static_cast<double>(store.MemoryBytes()) / store.size();

  std::fprintf(stderr,
               "paper_sparql: %llu passes, %.1f queries/s raw, calib %.4f s "
               "over %zu runs\n",
               static_cast<unsigned long long>(passes),
               static_cast<double>(res.attempted) / query_s, calib.MedianS(),
               calib.runs());
  PrintRaw(setup_s, pass_rates.MedianRate(), load_rates.MedianRate(),
           reloader.MedianS(), calib.MedianS());
  if (!options.trace) {
    res.Add("setup_s", calib.Seconds(setup_s), "s");
    res.Add("queries_per_s", qps, "queries/s");
    res.Add("bytes_per_triple", bytes_per_triple, "B");
    res.Add("write_triples_per_s", calib.Rate(load_rates.MedianRate()),
            "triples/s");
    res.Add("restart_s", calib.Seconds(reloader.MedianS()), "s");
    res.Add("log_bytes_per_triple", reloader.bytes_per_triple(), "B");
    return res;
  }
  layers.paper_hexa_ms /= static_cast<double>(passes);
  layers.core_bytes_per_triple =
      static_cast<double>(store.base()->MemoryBytes()) / store.base()->size();
  std::fprintf(stderr, "paper_sparql: traced queries_per_s %.3f\n", qps);
  layers.Emit(calib.MedianS(), &res);
  return res;
}

SnapshotReloader::SnapshotReloader(
    const Options& options, const std::string& tag,
    const hx::Dictionary& dict, hx::DeltaHexastore* store,
    std::string first_query,
    std::function<bool(const hx::ResultSet&)> check, RunResult* res)
    : path_(options.workdir + "/" + tag + "-" + std::to_string(::getpid()) +
            ".hxs"),
      first_query_(std::move(first_query)),
      check_(std::move(check)),
      res_(res) {
  const hx::Status saved = hx::SaveSnapshotFile(dict, store, path_);
  if (!saved.ok()) {
    res_->Mismatch("snapshot save: " + saved.ToString());
    return;
  }
  saved_ = true;
  bytes_per_triple_ = static_cast<double>(FileBytes(path_)) / store->size();
}

SnapshotReloader::~SnapshotReloader() { RemoveTree(path_); }

void SnapshotReloader::Reload() {
  if (!saved_) {
    return;
  }
  const double r0 = Now();
  hx::Dictionary dict;
  hx::DeltaHexastore store;
  const hx::Status loaded = hx::LoadSnapshotFile(path_, &dict, &store);
  store.GetSnapshot();
  hx::query::Session session(store, dict);
  auto first = session.Query(first_query_);
  times_.push_back(Now() - r0);
  ++res_->attempted;
  if (!loaded.ok() || !first.ok() || !check_(first.value().set)) {
    res_->Mismatch("the first query after a reload differs");
  }
}

}  // namespace hexbench
