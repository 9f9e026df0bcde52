// Tests for the concurrent SPARQL HTTP server (server/server.h):
// socket-free routing through Server::Handle, end-to-end socket round
// trips, write visibility (publish-on-write), admission-control 503s,
// Start/Stop cycles under a keep-alive client, a durable restart, and a
// concurrent clients-vs-compactor stress run (the TSan CI job leans on
// this one). Every server runs over a ShardedHexastore, the only store
// shape it serves; most fixtures use one shard, as hexastore_server does
// by default.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dict/dictionary.h"
#include "query/session.h"
#include "server/http.h"
#include "server/server.h"
#include "server/store_options.h"
#include "shard/sharded_hexastore.h"

namespace hexastore {
namespace {

namespace fs = std::filesystem;

// The default hexastore_server store shape: one in-memory shard.
ShardedOptions OneShard(const DeltaOptions& delta = {}) {
  ShardedOptions options;
  options.shards = 1;
  options.delta = delta;
  return options;
}

HttpRequest MakeRequest(std::string method, std::string path,
                        std::vector<std::pair<std::string, std::string>>
                            params = {},
                        std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.path = std::move(path);
  request.params = std::move(params);
  request.body = std::move(body);
  return request;
}

// Minimal blocking HTTP client for the socket-level tests. One request
// per call; supports keep-alive reuse.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) : port_(port) {}
  ~TestClient() { Close(); }

  /// Returns the HTTP status (or -1 on transport error) and fills body.
  int Request(const std::string& method, const std::string& target,
              const std::string& body, std::string* out = nullptr) {
    if (fd_ < 0 && !Connect()) {
      return -1;
    }
    std::string req = method + " " + target + " HTTP/1.1\r\n" +
                      "Host: t\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
    if (::send(fd_, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
      Close();
      return -1;
    }
    return ReadResponse(out);
  }

  /// Sends raw bytes without waiting for a response (flood helper).
  bool SendRaw(const std::string& data) {
    if (fd_ < 0 && !Connect()) {
      return false;
    }
    return ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(data.size());
  }

  int ReadResponse(std::string* out) {
    std::string buf;
    char chunk[4096];
    std::size_t header_end = std::string::npos;
    while (header_end == std::string::npos) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        Close();
        return -1;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      header_end = buf.find("\r\n\r\n");
    }
    int status = -1;
    if (std::size_t sp = buf.find(' '); sp != std::string::npos) {
      status = std::atoi(buf.c_str() + sp + 1);
    }
    std::size_t content_length = 0;
    std::string lower = buf.substr(0, header_end);
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (std::size_t pos = lower.find("content-length:");
        pos != std::string::npos) {
      content_length = std::strtoull(lower.c_str() + pos + 15, nullptr, 10);
    }
    std::size_t body_start = header_end + 4;
    while (buf.size() - body_start < content_length) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        Close();
        return -1;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (out != nullptr) {
      out->assign(buf, body_start, content_length);
    }
    if (lower.find("connection: close") != std::string::npos) {
      Close();
    }
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  std::uint16_t port_;
  int fd_ = -1;
};

class ServerHandleTest : public ::testing::Test {
 protected:
  ServerHandleTest()
      : store_(OneShard()), server_(store_, dict_, ServerOptions{}) {
    for (int i = 0; i < 4; ++i) {
      store_.Insert(dict_.Encode(
          Triple{Term::Iri("http://x/s" + std::to_string(i)),
                 Term::Iri("http://x/p"), Term::Iri("http://x/o")}));
    }
    store_.GetSnapshot();  // publish for wait-free sessions
    query::SessionOptions options;
    options.pin = query::PinPolicy::kWaitFree;
    session_ = std::make_unique<query::Session>(store_, dict_, options);
  }

  HttpResponse Handle(const HttpRequest& request) {
    return server_.Handle(request, session_.get());
  }

  Dictionary dict_;
  ShardedHexastore store_;
  Server server_;  // never Start()ed: routing only
  std::unique_ptr<query::Session> session_;
};

TEST_F(ServerHandleTest, QueryReturnsSparqlJson) {
  HttpResponse response = Handle(MakeRequest(
      "GET", "/query", {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o }"}}));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/sparql-results+json");
  EXPECT_NE(response.body.find("\"bindings\""), std::string::npos);
  EXPECT_NE(response.body.find("http://x/s0"), std::string::npos);
}

TEST_F(ServerHandleTest, QueryViaPostBody) {
  HttpResponse response =
      Handle(MakeRequest("POST", "/query", {},
                         "SELECT ?s WHERE { ?s <http://x/p> ?o }"));
  EXPECT_EQ(response.status, 200);
}

TEST_F(ServerHandleTest, MissingQueryIs400) {
  EXPECT_EQ(Handle(MakeRequest("GET", "/query")).status, 400);
}

TEST_F(ServerHandleTest, ParseErrorIs400) {
  EXPECT_EQ(
      Handle(MakeRequest("GET", "/query", {{"q", "SELECT WHERE {"}})).status,
      400);
}

TEST_F(ServerHandleTest, UnknownPathIs404) {
  EXPECT_EQ(Handle(MakeRequest("GET", "/nope")).status, 404);
}

TEST_F(ServerHandleTest, InsertRequiresPost) {
  EXPECT_EQ(Handle(MakeRequest("GET", "/insert")).status, 405);
}

TEST_F(ServerHandleTest, MalformedInsertIs400) {
  EXPECT_EQ(
      Handle(MakeRequest("POST", "/insert", {}, "this is not n-triples"))
          .status,
      400);
}

TEST_F(ServerHandleTest, InsertThenQuerySeesTheWrite) {
  HttpResponse insert = Handle(MakeRequest(
      "POST", "/insert", {},
      "<http://x/new> <http://x/p> <http://x/o> .\n"));
  EXPECT_EQ(insert.status, 200);
  EXPECT_NE(insert.body.find("\"inserted\":1"), std::string::npos);

  // Publish-on-write: the wait-free session must see it immediately.
  HttpResponse query = Handle(MakeRequest(
      "GET", "/query", {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o }"}}));
  EXPECT_NE(query.body.find("http://x/new"), std::string::npos);

  HttpResponse erase = Handle(MakeRequest(
      "POST", "/erase", {},
      "<http://x/new> <http://x/p> <http://x/o> .\n"));
  EXPECT_EQ(erase.status, 200);
  EXPECT_NE(erase.body.find("\"erased\":1"), std::string::npos);
  HttpResponse after = Handle(MakeRequest(
      "GET", "/query", {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o }"}}));
  EXPECT_EQ(after.body.find("http://x/new"), std::string::npos);
}

TEST_F(ServerHandleTest, MetricsExposeServerAndPlanCacheFamilies) {
  HttpResponse metrics = Handle(MakeRequest("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("hexa_server_requests"), std::string::npos);
  EXPECT_NE(metrics.body.find("hexa_plan_cache_hits"), std::string::npos);
  EXPECT_EQ(Handle(MakeRequest("GET", "/metrics.json")).status, 200);
}

// The same HTTP surface over the sharded facade: queries, publish-on-
// write freshness and the metrics export all route through
// a 4-shard ShardedHexastore (HEXA_SHARDS=4 in the binary).
class ShardedServerHandleTest : public ::testing::Test {
 protected:
  static ShardedOptions FourShards() {
    ShardedOptions options;
    options.shards = 4;
    return options;
  }

  ShardedServerHandleTest()
      : store_(FourShards()), server_(store_, dict_, ServerOptions{}) {
    for (int i = 0; i < 8; ++i) {
      store_.Insert(dict_.Encode(
          Triple{Term::Iri("http://x/s" + std::to_string(i)),
                 Term::Iri("http://x/p"), Term::Iri("http://x/o")}));
    }
    store_.GetSnapshot();  // publish for wait-free sessions
    query::SessionOptions options;
    options.pin = query::PinPolicy::kWaitFree;
    session_ = std::make_unique<query::Session>(store_, dict_, options);
  }

  HttpResponse Handle(const HttpRequest& request) {
    return server_.Handle(request, session_.get());
  }

  Dictionary dict_;
  ShardedHexastore store_;
  Server server_;  // never Start()ed: routing only
  std::unique_ptr<query::Session> session_;
};

TEST_F(ShardedServerHandleTest, QueryAnswersAcrossShards) {
  // The 8 subjects hash across the 4 shards; an unbound-subject query
  // scatter-gathers and must return all of them.
  HttpResponse response = Handle(MakeRequest(
      "GET", "/query",
      {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o } ORDER BY ?s"}}));
  EXPECT_EQ(response.status, 200);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(response.body.find("http://x/s" + std::to_string(i)),
              std::string::npos)
        << "missing subject " << i;
  }
}

TEST_F(ShardedServerHandleTest, InsertThenQuerySeesTheWrite) {
  HttpResponse insert = Handle(MakeRequest(
      "POST", "/insert", {},
      "<http://x/new> <http://x/p> <http://x/o> .\n"));
  EXPECT_EQ(insert.status, 200);
  EXPECT_NE(insert.body.find("\"inserted\":1"), std::string::npos);
  // Publish-on-write reaches every shard's generation stream: the
  // wait-free sharded session must see the write immediately.
  HttpResponse query = Handle(MakeRequest(
      "GET", "/query", {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o }"}}));
  EXPECT_NE(query.body.find("http://x/new"), std::string::npos);
}

TEST_F(ShardedServerHandleTest, MetricsExposeShardFamilies) {
  HttpResponse metrics = Handle(MakeRequest("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("hexa_shard_count 4"), std::string::npos);
  EXPECT_NE(metrics.body.find("hexa_shard_routed_writes_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("hexa_server_requests"), std::string::npos);
  EXPECT_EQ(Handle(MakeRequest("GET", "/metrics.json")).status, 200);
}

TEST_F(ShardedServerHandleTest, HealthzAnswersOk) {
  HttpResponse health = Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("true"), std::string::npos);
}

TEST_F(ServerHandleTest, HealthzAnswersBooleanJson) {
  HttpResponse health = Handle(MakeRequest("GET", "/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"head\":{},\"boolean\":true}");
}

TEST_F(ServerHandleTest, DeadlineOverrunIs504) {
  query::SessionOptions options;
  options.pin = query::PinPolicy::kWaitFree;
  options.deadline_ns = 1;
  query::Session hurried(store_, dict_, options);
  HttpResponse response = server_.Handle(
      MakeRequest("GET", "/query",
                  {{"q", "SELECT ?s WHERE { ?s <http://x/p> ?o }"}}),
      &hurried);
  EXPECT_EQ(response.status, 504);
}

// ---------------------------------------------------------------------
// Socket-level tests.

TEST(ServerSocketTest, EndToEndRoundTrips) {
  Dictionary dict;
  ShardedHexastore store(OneShard());
  for (int i = 0; i < 16; ++i) {
    store.Insert(dict.Encode(
        Triple{Term::Iri("http://x/s" + std::to_string(i)),
               Term::Iri("http://x/p"), Term::Iri("http://x/o")}));
  }
  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  Server server(store, dict, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  std::string body;
  EXPECT_EQ(client.Request("POST", "/query",
                           "SELECT ?s WHERE { ?s <http://x/p> ?o }", &body),
            200);
  EXPECT_NE(body.find("http://x/s0"), std::string::npos);

  // Keep-alive: same connection serves a second request.
  EXPECT_EQ(client.Request("GET", "/healthz", "", &body), 200);
  EXPECT_EQ(body, "{\"head\":{},\"boolean\":true}");

  // A write round trip through sockets.
  EXPECT_EQ(client.Request("POST", "/insert",
                           "<http://x/w> <http://x/p> <http://x/o> .\n",
                           &body),
            200);
  EXPECT_EQ(client.Request("POST", "/query",
                           "SELECT ?s WHERE { ?s <http://x/p> ?o }", &body),
            200);
  EXPECT_NE(body.find("http://x/w"), std::string::npos);

  EXPECT_EQ(client.Request("GET", "/nope", "", &body), 404);
  server.Stop();
}

TEST(ServerSocketTest, OversizedRequestIs413) {
  Dictionary dict;
  ShardedHexastore store(OneShard());
  ServerOptions options;
  options.port = 0;
  options.max_request_bytes = 2048;
  Server server(store, dict, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  std::string body(8192, 'x');
  EXPECT_EQ(client.Request("POST", "/query", body, nullptr), 413);
  server.Stop();
}

TEST(ServerSocketTest, AdmissionControlShedsWith503) {
  Dictionary dict;
  ShardedHexastore store(OneShard());
  // Enough data that one ORDER BY query occupies the single worker for
  // a measurable window.
  for (int i = 0; i < 20000; ++i) {
    store.Insert(dict.Encode(
        Triple{Term::Iri("http://x/s" + std::to_string(i)),
               Term::Iri("http://x/p" + std::to_string(i % 50)),
               Term::Iri("http://x/o" + std::to_string(i % 997))}));
  }
  ServerOptions options;
  options.port = 0;
  options.threads = 1;
  options.queue_depth = 1;
  Server server(store, dict, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string slow_body =
      "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o LIMIT 19999";
  const std::string slow_query =
      "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(slow_body.size()) + "\r\n\r\n" + slow_body;

  bool saw_503 = false;
  bool busy_got_200 = false;
  for (int attempt = 0; attempt < 5 && !(saw_503 && busy_got_200);
       ++attempt) {
    // One connection pins the worker; a flood of others must overflow
    // the depth-1 queue and be shed at the door.
    std::vector<std::unique_ptr<TestClient>> flood;
    TestClient busy(server.port());
    ASSERT_TRUE(busy.SendRaw(slow_query));
    // Give the poller time to hand `busy` to the worker; otherwise the
    // flood can race it into the full queue and shed it too.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int i = 0; i < 32; ++i) {
      flood.push_back(std::make_unique<TestClient>(server.port()));
      flood.back()->SendRaw(slow_query);
    }
    for (auto& client : flood) {
      int status = client->ReadResponse(nullptr);
      if (status == 503) {
        saw_503 = true;
      } else {
        EXPECT_TRUE(status == 200 || status == -1)
            << "unexpected status " << status;
      }
    }
    // The admitted connection must not be harmed by the shed: it
    // still gets its answer (within this attempt or a later one).
    if (busy.ReadResponse(nullptr) == 200) {
      busy_got_200 = true;
    }
  }
  EXPECT_TRUE(saw_503);
  EXPECT_TRUE(busy_got_200) << "the admitted slow query never answered 200";
  server.Stop();
}

// The TSan centerpiece: concurrent clients querying and writing over
// sockets while the store's background compactor folds generations
// underneath them. Every response must be well-formed and correct-ish
// (non-decreasing hot-predicate counts per client).
TEST(ServerSocketTest, ConcurrentClientsVsCompactorStress) {
  Dictionary dict;
  DeltaOptions delta;
  delta.compact_threshold = 64;     // merge constantly
  delta.background_compaction = true;
  delta.l0_run_limit = 2;
  ShardedHexastore store(OneShard(delta));
  ServerOptions options;
  options.port = 0;
  options.threads = 4;
  Server server(store, dict, options);
  {
    IdTripleVec seed;
    for (int i = 0; i < 512; ++i) {
      seed.push_back(dict.Encode(
          Triple{Term::Iri("http://x/s" + std::to_string(i)),
                 Term::Iri("http://x/p" + std::to_string(i % 8)),
                 Term::Iri("http://x/o")}));
    }
    store.BulkLoad(seed);
  }
  ASSERT_TRUE(server.Start().ok());

  constexpr int kReaders = 4;
  constexpr int kRequestsPerReader = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      TestClient client(server.port());
      std::size_t last_rows = 0;
      for (int i = 0; i < kRequestsPerReader; ++i) {
        std::string body;
        std::string query =
            "SELECT ?s WHERE { ?s <http://x/hot" + std::to_string(t % 2) +
            "> ?o }";
        int status = client.Request("POST", "/query", query, &body);
        if (status != 200) {
          failures.fetch_add(1);
          continue;
        }
        std::size_t rows = 0;
        for (std::size_t pos = body.find("{\"s\":"); pos != std::string::npos;
             pos = body.find("{\"s\":", pos + 1)) {
          ++rows;
        }
        if (rows < last_rows) {
          failures.fetch_add(1);
        }
        last_rows = rows;
      }
    });
  }
  // Writer thread: HTTP inserts on the hot predicates, keeping the
  // compactor busy through the tiny threshold.
  threads.emplace_back([&] {
    TestClient client(server.port());
    for (int i = 0; i < 120; ++i) {
      std::string triples;
      for (int j = 0; j < 4; ++j) {
        triples += "<http://x/w" + std::to_string(i * 4 + j) +
                   "> <http://x/hot" + std::to_string(i % 2) +
                   "> <http://x/o> .\n";
      }
      if (client.Request("POST", "/insert", triples, nullptr) != 200) {
        failures.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(server.plan_cache().hits(), 0u);
  server.Stop();
}

// Stop() must return however its wake-up interleaves with a worker
// handing a keep-alive connection back to the poller: each cycle serves
// requests on a keep-alive connection and stops while the last one's
// connection is on its way back, so the two wake-ups race. A poller
// that drained both and went back to sleep would hang the cycle (and
// the suite, until its ctest timeout).
TEST(ServerSocketTest, StartStopCyclesWithKeepAliveClient) {
  Dictionary dict;
  ShardedHexastore store(OneShard());
  store.Insert(dict.Encode(Triple{Term::Iri("http://x/s"),
                                  Term::Iri("http://x/p"),
                                  Term::Iri("http://x/o")}));
  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  Server server(store, dict, options);
  for (int cycle = 0; cycle < 200; ++cycle) {
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
    TestClient client(server.port());
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(client.Request("POST", "/query",
                               "SELECT ?s WHERE { ?s <http://x/p> ?o }"),
                200)
          << "cycle " << cycle;
    }
    server.Stop();
  }
}

// A durable 1-shard facade keeps HTTP writes across a server restart:
// insert, Stop, Flush, reopen, and the new server counts the same
// triples. The count is id-level (all variables) because the dictionary
// is not persisted, so a restarted server knows no terms.
TEST(ServerSocketTest, DurableFacadeKeepsWritesAcrossRestart) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("hexa_server_test_durable_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ShardedOptions store_options;
  store_options.shards = 1;
  store_options.durable = true;
  store_options.durability.dir = dir.string();
  ServerOptions options;
  options.port = 0;
  options.threads = 2;
  const std::string count_query =
      "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }";

  std::string before;
  {
    auto opened = ShardedHexastore::Open(store_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Dictionary dict;
    Server server(*opened.value(), dict, options);
    ASSERT_TRUE(server.Start().ok());
    TestClient client(server.port());
    std::string triples;
    for (int i = 0; i < 40; ++i) {
      triples += "<http://x/s" + std::to_string(i) + "> <http://x/p" +
                 std::to_string(i % 3) + "> <http://x/o> .\n";
    }
    std::string body;
    ASSERT_EQ(client.Request("POST", "/insert", triples, &body), 200);
    EXPECT_NE(body.find("\"inserted\":40"), std::string::npos) << body;
    ASSERT_EQ(client.Request("POST", "/query", count_query, &before), 200);
    EXPECT_NE(before.find("\"value\":\"40\""), std::string::npos)
        << before;
    server.Stop();
    ASSERT_TRUE(opened.value()->Flush().ok());
  }
  {
    auto reopened = ShardedHexastore::Open(store_options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    Dictionary fresh;
    Server server(*reopened.value(), fresh, options);
    ASSERT_TRUE(server.Start().ok());
    TestClient client(server.port());
    std::string after;
    ASSERT_EQ(client.Request("POST", "/query", count_query, &after), 200);
    EXPECT_EQ(after, before);
    server.Stop();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hexastore
