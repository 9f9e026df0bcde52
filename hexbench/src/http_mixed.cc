// http_mixed: one keep-alive connection to an in-process Server over a
// durable 2-shard ShardedHexastore (batched WAL, synchronous compaction).
// The connection streams the LUBM generator's next triples through
// /insert, erases some of them through /erase, and between write batches
// reads its own writes and the preload through /query. Every round ends
// with Stop(), a flush and a restart: the directory is reopened, a new
// Server with a fresh Dictionary answers /healthz and the restart probes,
// and the run then resumes on the reopened store with the process's own
// dictionary. Every answer is checked at the term level against the
// benchmark's own set of triples.
#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sched.h>
#include <set>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "data/lubm_generator.h"
#include "http_client.h"
#include "json_read.h"
#include "query/result_json.h"
#include "rdf/ntriples.h"
#include "server/server.h"
#include "shard/sharded_hexastore.h"
#include "workloads.h"

namespace hexbench {

namespace hx = hexastore;

namespace {

// Round make-up (README.md): 8 insert batches of 64 triples, an erase of
// 16 after every second batch, two reads after every batch, then the
// restart with /healthz, 4 probes and the id-level COUNT(*) check.
constexpr std::size_t kBatches = 8;
constexpr std::size_t kInsertBatch = 64;
constexpr std::size_t kEraseBatch = 16;
constexpr std::size_t kProbes = 4;
constexpr std::size_t kShards = 2;

using KeyTriple = std::array<std::uint32_t, 3>;

// The term-level oracle: the benchmark's own term table and triple set.
class TermOracle {
 public:
  std::uint32_t Key(const hx::Term& term) {
    const std::string key = TermKey(term);
    auto [it, added] = ids_.try_emplace(key, keys_.size());
    if (added) {
      keys_.push_back(key);
    }
    return it->second;
  }
  KeyTriple Key(const hx::Triple& t) {
    return {Key(t.subject), Key(t.predicate), Key(t.object)};
  }
  const std::string& Spelling(std::uint32_t k) const { return keys_[k]; }

  bool Insert(const KeyTriple& t) { return spo_.insert(t).second; }
  bool Erase(const KeyTriple& t) { return spo_.erase(t) > 0; }
  std::size_t size() const { return spo_.size(); }
  bool Contains(const KeyTriple& t) const { return spo_.count(t) > 0; }

  // Rows of (?p ?o) for subject s, or of (?o) for (s, p).
  std::vector<std::vector<std::string>> Objects(std::uint32_t s,
                                                bool with_p,
                                                std::uint32_t p) const {
    std::vector<std::vector<std::string>> rows;
    for (auto it = spo_.lower_bound({s, with_p ? p : 0u, 0u});
         it != spo_.end() && (*it)[0] == s && (!with_p || (*it)[1] == p);
         ++it) {
      if (with_p) {
        rows.push_back({keys_[(*it)[2]]});
      } else {
        rows.push_back({keys_[(*it)[1]], keys_[(*it)[2]]});
      }
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

 private:
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> keys_;
  std::set<KeyTriple> spo_;
};

struct StreamTriple {
  hx::Triple triple;
  KeyTriple key;
  std::string line;  // N-Triples line with its newline
};

std::string Body(const std::vector<const StreamTriple*>& batch) {
  std::string body;
  for (const StreamTriple* t : batch) {
    body += t->line;
  }
  return body;
}

// Accumulates client-observed time per endpoint.
struct Endpoint {
  Timer client;
  double triples = 0;
};

// The traced replay's in-process stacks: B serves every request through
// Server::Handle (never started), and a second Session with its own plan
// cache profiles each query on B as the server's session would see it;
// C takes the module calls the handlers make (parse, encode, logged
// write, publish); D is an in-memory delta with the shards' options, for
// the bare delta insert cost.
struct TracedStacks {
  std::string dir_b, dir_c;
  hx::Dictionary dict_b, dict_c;
  std::unique_ptr<hx::ShardedHexastore> store_b, store_c;
  std::unique_ptr<hx::Server> server_b;
  std::unique_ptr<hx::PlanCache> cache_b, cache_profile;
  std::unique_ptr<hx::query::Session> session_b, session_profile;
  std::unique_ptr<hx::DeltaHexastore> delta_d;
};

hx::ShardedOptions StoreOptions(const std::string& dir, std::size_t threshold) {
  hx::ShardedOptions o;
  o.shards = kShards;
  o.durable = true;
  o.durability.dir = dir;
  o.durability.mode = hx::DurabilityMode::kBatched;
  o.durability.compact_threshold = threshold;
  o.durability.background_compaction = false;
  return o;
}

hx::ServerOptions ServeOptions() {
  hx::ServerOptions o;
  o.host = "127.0.0.1";
  o.port = 0;
  o.threads = 2;
  return o;
}

// Keeps the process, and every thread it starts from here on (the
// server's poller and workers), on the CPU it runs on now. One request
// passes through the client, the poller and a worker; on one CPU each
// hand-off is a switch there instead of a wake-up of another, possibly
// idle, CPU, whose latency on a shared host varies from run to run. Best
// effort: a failure leaves the process unpinned.
void PinToCurrentCpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

// Stops a started server. Server::Stop() can lose its wake-up: the
// poller checks the stop flag before it drains the wake pipe, so a stop
// byte written while it is taking back a returned connection is drained
// with that one, and poll() then sleeps on with no deadline. While Stop()
// runs, a helper connects to the listen port every 20 ms; the pending
// connection wakes the poller, which then sees the flag. In the usual
// case Stop() returns first and the helper never connects. Returns the
// number of such connections.
int StopServer(hx::Server* server) {
  const std::uint16_t port = server->port();
  std::mutex mu;
  std::condition_variable cv;
  bool stopped = false;
  int knocks = 0;
  std::thread knocker([&] {
    std::unique_lock<std::mutex> lock(mu);
    while (!cv.wait_for(lock, std::chrono::milliseconds(20),
                        [&] { return stopped; })) {
      HttpClient knock;
      knock.Connect(port);
      ++knocks;
    }
  });
  server->Stop();
  {
    std::lock_guard<std::mutex> lock(mu);
    stopped = true;
  }
  cv.notify_one();
  knocker.join();
  return knocks;
}

std::uint64_t WalBytes(const hx::ShardedHexastore& store) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    n += store.durable_shard(i)->wal_stats().bytes_appended;
  }
  return n;
}

std::uint64_t Counter(const hx::ShardedHexastore& store, const char* name) {
  std::uint64_t v = 0;
  store.metrics_registry().CounterValue(name, &v);
  return v;
}

}  // namespace

RunResult RunHttpMixed(const Options& options) {
  RunResult res;
  PinToCurrentCpu();
  const std::size_t preload_n = options.tiny() ? 4000 : 60000;
  const std::size_t stream_n = options.tiny() ? 20000 : 150000;
  const std::size_t threshold = options.tiny() ? 256 : 1024;
  LayerFigures layers;

  // ---- set-up: inputs, durable store, server, connection ----------------
  std::vector<hx::Triple> generated =
      hx::data::LubmGenerator(
          hx::data::LubmOptions{.seed = LubmSeed(options.seed)})
          .Generate(preload_n + stream_n);
  TermOracle oracle;
  std::vector<StreamTriple> stream;
  stream.reserve(stream_n);
  hx::Dictionary dict;
  hx::IdTripleVec preload_ids;
  std::vector<KeyTriple> preload_keys;
  for (std::size_t i = 0; i < generated.size(); ++i) {
    const hx::Triple& t = generated[i];
    if (i < preload_n) {
      preload_ids.push_back(dict.Encode(t));
      preload_keys.push_back(oracle.Key(t));
      oracle.Insert(preload_keys.back());
    } else {
      stream.push_back({t, oracle.Key(t),
                        t.subject.ToNTriples() + " " +
                            t.predicate.ToNTriples() + " " +
                            t.object.ToNTriples() + " .\n"});
    }
  }
  // The restart probes: the first four preload triples (University0 and
  // Department0's type and links), which the generator emits for every seed.
  std::vector<hx::Triple> probes(generated.begin(), generated.begin() + kProbes);
  generated.clear();
  generated.shrink_to_fit();

  const std::string dir =
      options.workdir + "/http-" + std::to_string(::getpid());
  RemoveTree(dir);
  const hx::ShardedOptions store_options = StoreOptions(dir, threshold);
  auto opened = hx::ShardedHexastore::Open(store_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "http_mixed: %s\n",
                 opened.status().ToString().c_str());
    return res;
  }
  std::unique_ptr<hx::ShardedHexastore> store = std::move(opened).value();
  store->BulkLoad(preload_ids);

  std::unique_ptr<TracedStacks> traced;
  if (options.trace) {
    traced = std::make_unique<TracedStacks>();
    traced->dir_b = dir + "-b";
    traced->dir_c = dir + "-c";
    RemoveTree(traced->dir_b);
    RemoveTree(traced->dir_c);
    auto b = hx::ShardedHexastore::Open(StoreOptions(traced->dir_b, threshold));
    auto c = hx::ShardedHexastore::Open(StoreOptions(traced->dir_c, threshold));
    if (!b.ok() || !c.ok()) {
      std::fprintf(stderr, "http_mixed: cannot open the traced stores\n");
      return res;
    }
    traced->store_b = std::move(b).value();
    traced->store_c = std::move(c).value();
    hx::IdTripleVec ids_b, ids_c;
    for (const hx::IdTriple& id : preload_ids) {
      const hx::Triple t = dict.Decode(id);
      ids_b.push_back(traced->dict_b.Encode(t));
      ids_c.push_back(traced->dict_c.Encode(t));
    }
    traced->store_b->BulkLoad(ids_b);
    traced->store_c->BulkLoad(ids_c);
    traced->server_b = std::make_unique<hx::Server>(
        *traced->store_b, traced->dict_b, ServeOptions());
    traced->cache_b = std::make_unique<hx::PlanCache>();
    traced->session_b = std::make_unique<hx::query::Session>(
        *traced->store_b, traced->dict_b,
        hx::query::SessionOptions{.pin = hx::query::PinPolicy::kWaitFree,
                                  .plan_cache = traced->cache_b.get()});
    traced->cache_profile = std::make_unique<hx::PlanCache>();
    traced->session_profile = std::make_unique<hx::query::Session>(
        *traced->store_b, traced->dict_b,
        hx::query::SessionOptions{.pin = hx::query::PinPolicy::kWaitFree,
                                  .plan_cache = traced->cache_profile.get()});
    hx::DeltaOptions d;
    d.compact_threshold = threshold;
    traced->delta_d = std::make_unique<hx::DeltaHexastore>(d);
    traced->delta_d->BulkLoad(ids_c);
  }
  preload_ids.clear();

  auto server = std::make_unique<hx::Server>(*store, dict, ServeOptions());
  HttpClient client;
  if (!server->Start().ok() || !client.Connect(server->port())) {
    std::fprintf(stderr, "http_mixed: cannot start the server\n");
    return res;
  }
  const double setup_s = SinceStart();
  std::fprintf(stderr,
               "http_mixed: %zu preloaded, %zu-triple stream, set-up %.2f s\n",
               store->size(), stream.size(), setup_s);

  // ---- measured phase ---------------------------------------------------
  Calibrator calib;
  calib.Run();
  Rand rng(options.seed * 0xD1B54A32D192ED03ull + 11);
  Endpoint insert_ep, erase_ep, query_ep;
  std::vector<double> restart_times;
  SegmentRates query_rates;  // one segment per kSegmentRounds
  constexpr std::uint64_t kSegmentRounds = 3;
  Timer all_requests;   // client-observed, every request (traced)
  Timer all_handles;    // Server::Handle on stack B, every request (traced)
  // WAL bytes per written triple over the first kLogRounds rounds: one
  // round's figure moves with how many of its erases and re-inserts the
  // log skips, which the seed decides.
  constexpr std::uint64_t kLogRounds = 8;
  double log_bytes = 0, log_triples = 0, bytes_per_triple = 0;
  double fsyncs = 0, checkpoints = 0, scatter_reads = 0, routed_writes = 0;
  std::size_t cursor = 0;
  std::uint64_t rounds = 0;
  int stop_knocks = 0;
  bool transport_ok = true;

  // Sends one request on the live connection; times it; replays it on the
  // traced stacks when tracing.
  auto request = [&](const char* method, const std::string& path,
                     const std::string& body, Endpoint* ep, HttpReply* reply) {
    const double r0 = Now();
    const bool ok = client.Request(method, path, body, reply);
    const double elapsed = Now() - r0;
    ++res.attempted;
    if (ep != nullptr) {
      ep->client.Add(elapsed);
      if (ep == &query_ep) {
        query_rates.Add(1, elapsed);
      }
    }
    if (!ok) {
      transport_ok = false;
      res.Mismatch(std::string("transport error on ") + path);
      return false;
    }
    if (traced && ep != nullptr) {
      all_requests.Add(elapsed);
      hx::HttpRequest req;
      req.method = method;
      req.path = path;
      req.body = body;
      Timer* handle = ep == &query_ep    ? &layers.handle_query
                      : ep == &insert_ep ? &layers.handle_insert
                                         : &layers.handle_erase;
      if (ep == &query_ep) {
        auto result = traced->session_profile->Query(body);
        if (result.ok()) {
          layers.AddProfile(result.value());
          const double j0 = Now();
          const std::string json =
              hx::ResultSetToJson(result.value().set, traced->dict_b);
          layers.json.Add(Now() - j0);
        }
      }
      const double h0 = Now();
      const hx::HttpResponse resp =
          traced->server_b->Handle(req, traced->session_b.get());
      const double h = Now() - h0;
      handle->Add(h);
      all_handles.Add(h);
      if (resp.status != reply->status) {
        res.Mismatch("traced replay status differs on " + path);
      }
    }
    return true;
  };

  auto check_rows = [&](const HttpReply& reply,
                        std::vector<std::vector<std::string>> expected,
                        const std::string& what) {
    SparqlRows rows;
    if (reply.status != 200 || !ParseSparqlJson(reply.body, &rows)) {
      res.Mismatch(what + ": status " + std::to_string(reply.status));
      return;
    }
    std::sort(rows.rows.begin(), rows.rows.end());
    if (rows.rows != expected) {
      res.Mismatch(what + ": " + std::to_string(rows.rows.size()) +
                   " rows, oracle has " + std::to_string(expected.size()));
    }
  };

  // The module calls behind one write request, on stack C and D (traced).
  auto replay_write = [&](const std::string& body, bool insert) {
    const double p0 = Now();
    auto parsed = hx::ParseNTriplesDocument(body, true);
    const double parse_s = Now() - p0;
    if (!parsed.ok()) {
      res.Mismatch("traced parse failed");
      return;
    }
    layers.rdf_parse.Add(parse_s, parsed.value().size());
    for (const hx::Triple& t : parsed.value()) {
      hx::IdTriple id{};
      const double e0 = Now();
      if (insert) {
        id = traced->dict_c.Encode(t);
        layers.encode.Add(Now() - e0);
      } else {
        auto found = traced->dict_c.TryEncode(t);
        layers.lookup.Add(Now() - e0);
        if (!found.has_value()) {
          continue;
        }
        id = *found;
      }
      const double w0 = Now();
      insert ? traced->store_c->Insert(id) : traced->store_c->Erase(id);
      layers.logged_write.Add(Now() - w0);
      const double d0 = Now();
      insert ? traced->delta_d->Insert(id) : traced->delta_d->Erase(id);
      layers.insert.Add(Now() - d0);
    }
    const double g0 = Now();
    traced->store_c->GetSnapshot();
    layers.publish.Add(Now() - g0);
  };

  const double start = Now();
  while (transport_ok &&
         (rounds == 0 || rounds % kSegmentRounds != 0 ||
          Now() - start < options.seconds) &&
         cursor + kBatches * kInsertBatch <= stream.size()) {
    const std::uint64_t round_log_start = WalBytes(*store);
    const double round_written_start = insert_ep.triples + erase_ep.triples;
    std::vector<const StreamTriple*> written;
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<const StreamTriple*> batch;
      std::size_t changes = 0;
      for (std::size_t i = 0; i < kInsertBatch; ++i) {
        const StreamTriple* t = &stream[cursor++];
        batch.push_back(t);
        written.push_back(t);
        changes += oracle.Insert(t->key) ? 1 : 0;
      }
      HttpReply reply;
      const std::string body = Body(batch);
      if (traced) {
        replay_write(body, true);
      }
      if (!request("POST", "/insert", body, &insert_ep, &reply)) {
        break;
      }
      insert_ep.triples += kInsertBatch;
      long long acked = -1;
      if (!ReadJsonCount(reply.body, "inserted", &acked) ||
          acked != static_cast<long long>(changes)) {
        res.Mismatch("/insert acknowledged " + std::to_string(acked) +
                     ", oracle changed " + std::to_string(changes));
      }

      // Read one of the own writes, then one preload fact.
      const StreamTriple* own = batch[rng.Below(batch.size())];
      const std::string q_own = "SELECT ?p ?o WHERE { " +
                                own->triple.subject.ToNTriples() + " ?p ?o }";
      if (!request("POST", "/query", q_own, &query_ep, &reply)) {
        break;
      }
      check_rows(reply, oracle.Objects(own->key[0], false, 0),
                 "own-write read");
      const std::size_t pick = rng.Below(preload_keys.size());
      const KeyTriple& pk = preload_keys[pick];
      const std::string q_pre = "SELECT ?o WHERE { " +
                                oracle.Spelling(pk[0]) + " " +
                                oracle.Spelling(pk[1]) + " ?o }";
      if (!request("POST", "/query", q_pre, &query_ep, &reply)) {
        break;
      }
      check_rows(reply, oracle.Objects(pk[0], true, pk[1]), "preload read");

      if (b % 2 == 1) {
        std::vector<const StreamTriple*> victims;
        changes = 0;
        for (std::size_t i = 0; i < kEraseBatch; ++i) {
          const StreamTriple* t = written[rng.Below(written.size())];
          victims.push_back(t);
          changes += oracle.Erase(t->key) ? 1 : 0;
        }
        const std::string erase_body = Body(victims);
        if (traced) {
          replay_write(erase_body, false);
        }
        if (!request("POST", "/erase", erase_body, &erase_ep, &reply)) {
          break;
        }
        erase_ep.triples += kEraseBatch;
        if (!ReadJsonCount(reply.body, "erased", &acked) ||
            acked != static_cast<long long>(changes)) {
          res.Mismatch("/erase acknowledged " + std::to_string(acked) +
                       ", oracle changed " + std::to_string(changes));
        }
      }
    }
    if (!transport_ok) {
      break;
    }
    if (store->size() != oracle.size()) {
      res.Mismatch("size " + std::to_string(store->size()) + " after writes, "
                   "oracle " + std::to_string(oracle.size()));
    }
    if (rounds == 0) {
      bytes_per_triple =
          static_cast<double>(store->MemoryBytes()) / store->size();
    }
    if (rounds < kLogRounds) {
      log_bytes += static_cast<double>(WalBytes(*store) - round_log_start);
      log_triples +=
          insert_ep.triples + erase_ep.triples - round_written_start;
    }

    // ---- restart --------------------------------------------------------
    stop_knocks += StopServer(server.get());
    server.reset();
    client.Close();
    const hx::Status flushed = store->Flush();
    if (!flushed.ok()) {
      res.Mismatch("flush: " + flushed.ToString());
    }
    for (std::size_t i = 0; i < store->shard_count(); ++i) {
      const hx::WalStats w = store->durable_shard(i)->wal_stats();
      fsyncs += static_cast<double>(w.fsyncs);
      checkpoints += static_cast<double>(w.checkpoints);
    }
    scatter_reads +=
        static_cast<double>(Counter(*store, "hexa_shard_scatter_reads_total"));
    routed_writes +=
        static_cast<double>(Counter(*store, "hexa_shard_routed_writes_total"));
    store.reset();

    const double r0 = Now();
    auto reopened = hx::ShardedHexastore::Open(store_options);
    layers.recovery_s += Now() - r0;
    if (!reopened.ok()) {
      res.Mismatch("reopen: " + reopened.status().ToString());
      break;
    }
    store = std::move(reopened).value();
    hx::Dictionary fresh;
    server = std::make_unique<hx::Server>(*store, fresh, ServeOptions());
    HttpReply reply;
    if (!server->Start().ok() || !client.Connect(server->port()) ||
        !request("GET", "/healthz", "", nullptr, &reply) ||
        reply.status != 200) {
      res.Mismatch("restarted server did not answer /healthz");
      break;
    }
    restart_times.push_back(Now() - r0);

    // Restart probes: facts the oracle holds, asked by term. They fail
    // while the term dictionary is not persisted (counted, not fatal).
    for (const hx::Triple& p : probes) {
      const std::string q = "SELECT (COUNT(*) AS ?n) WHERE { " +
                            p.subject.ToNTriples() + " " +
                            p.predicate.ToNTriples() + " " +
                            p.object.ToNTriples() + " }";
      SparqlRows rows;
      const bool sent = request("POST", "/query", q, nullptr, &reply);
      const bool ok = sent && reply.status == 200 &&
                      ParseSparqlJson(reply.body, &rows) &&
                      rows.rows.size() == 1 && rows.rows[0].size() == 1 &&
                      CountCell(rows.rows[0][0]) == 1 &&
                      oracle.Contains(oracle.Key(p));
      res.failed += ok ? 0 : 1;
    }
    // The id-level check passes without the dictionary: a hard check.
    SparqlRows rows;
    if (!request("POST", "/query", "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
                 nullptr, &reply) ||
        !ParseSparqlJson(reply.body, &rows) || rows.rows.size() != 1 ||
        CountCell(rows.rows[0][0]) != static_cast<long long>(oracle.size())) {
      res.Mismatch("COUNT(*) after the restart differs from the oracle");
    }
    if (store->size() != oracle.size()) {
      res.Mismatch("size after the restart differs from the oracle");
    }
    // Resume on the reopened store with the process's own dictionary.
    stop_knocks += StopServer(server.get());
    server = std::make_unique<hx::Server>(*store, dict, ServeOptions());
    if (!server->Start().ok() || !client.Connect(server->port())) {
      res.Mismatch("could not resume serving");
      break;
    }
    ++rounds;
    if (rounds % kSegmentRounds == 0) {
      query_rates.Close();
      calib.Run();
    }
  }
  stop_knocks += StopServer(server.get());
  server.reset();
  client.Close();
  for (std::size_t i = 0; i < store->shard_count(); ++i) {
    const hx::WalStats w = store->durable_shard(i)->wal_stats();
    fsyncs += static_cast<double>(w.fsyncs);
    checkpoints += static_cast<double>(w.checkpoints);
  }
  double base_bytes = 0, base_triples = 0;
  for (std::size_t i = 0; i < store->shard_count(); ++i) {
    base_bytes += static_cast<double>(store->shard(i).base()->MemoryBytes());
    base_triples += static_cast<double>(store->shard(i).base()->size());
  }
  store.reset();
  RemoveTree(dir);

  const double qps = calib.Rate(query_rates.MedianRate());
  std::fprintf(stderr,
               "http_mixed: %llu rounds, calib %.4f s over %zu runs, "
               "%d stop wake-up connections\n",
               static_cast<unsigned long long>(rounds), calib.MedianS(),
               calib.runs(), stop_knocks);
  // Writes are rated over the whole run: drains and checkpoints land in
  // some rounds and not others, so a per-segment median would flip
  // between the two.
  const double write_rate =
      (insert_ep.triples + erase_ep.triples) /
      (insert_ep.client.total_s + erase_ep.client.total_s);
  PrintRaw(setup_s, query_rates.MedianRate(), write_rate,
           Median(restart_times), calib.MedianS());
  if (!options.trace) {
    res.Add("setup_s", calib.Seconds(setup_s), "s");
    res.Add("queries_per_s", qps, "queries/s");
    res.Add("bytes_per_triple", bytes_per_triple, "B");
    res.Add("write_triples_per_s", calib.Rate(write_rate), "triples/s");
    res.Add("restart_s", calib.Seconds(Median(restart_times)), "s");
    res.Add("log_bytes_per_triple", Ratio(log_bytes, log_triples),
            "B");
    return res;
  }

  const hx::DeltaStats d = traced->delta_d->Stats();
  layers.write_amp = d.WriteAmplification();
  layers.drains = static_cast<double>(d.compactions);
  layers.fsyncs = fsyncs;
  layers.checkpoints = checkpoints;
  layers.recovery_s /= static_cast<double>(std::max<std::uint64_t>(1, rounds));
  layers.scatter_reads_per_query = Ratio(scatter_reads, query_ep.client.calls);
  layers.routed_writes = routed_writes;
  layers.core_bytes_per_triple = Ratio(base_bytes, base_triples);
  layers.transport_us =
      Ratio((all_requests.total_s - all_handles.total_s) * 1e6,
            static_cast<double>(all_requests.calls));
  std::fprintf(stderr, "http_mixed: traced queries_per_s %.3f\n", qps);
  layers.Emit(calib.MedianS(), &res);
  traced->session_profile.reset();
  traced->session_b.reset();
  traced->server_b.reset();
  traced->store_b.reset();
  traced->store_c.reset();
  RemoveTree(traced->dir_b);
  RemoveTree(traced->dir_c);
  return res;
}

}  // namespace hexbench
