// hexbench: the repository's end-to-end benchmark.
//
//   hexbench --workload paper_sparql|probe_mix|http_mixed --seed N
//            --seconds S --trace 0|1 [--size full|tiny] [--workdir DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. README.md in this
// directory describes the workloads and every metric.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "query/profile.h"
#include "workloads.h"

namespace hexbench {

void LayerFigures::AddProfile(const hexastore::query::QueryResult& result) {
  const hexastore::QueryProfile& p = result.profile;
  parse.Add(p.parse_ns * 1e-9);
  plan.Add(p.plan_ns * 1e-9);
  eval.Add(p.eval_ns * 1e-9);
  estimate_probes += static_cast<double>(p.estimate_probes);
  rows_scanned += static_cast<double>(p.TotalRowsScanned());
  rows_out += static_cast<double>(p.rows_out);
  cache_hits += result.from_plan_cache ? 1 : 0;
  queries += 1;
}

void LayerFigures::Emit(double calib_s, RunResult* out) const {
  out->Add("query.parse_us", parse.MeanUs(), "us");
  out->Add("query.plan_us", plan.MeanUs(), "us");
  out->Add("query.estimate_probes", Ratio(estimate_probes, queries), "count");
  out->Add("query.eval_us", eval.MeanUs(), "us");
  out->Add("query.rows_scanned_per_row", Ratio(rows_scanned, rows_out),
           "ratio");
  out->Add("query.plan_cache_hit_rate", Ratio(cache_hits, queries), "ratio");
  out->Add("query.json_us", json.MeanUs(), "us");
  out->Add("core.paper_hexa_ms", paper_hexa_ms, "ms");
  out->Add("core.bytes_per_triple", core_bytes_per_triple, "B");
  out->Add("delta.estimate_us", estimate.MeanUs(), "us");
  out->Add("delta.contains_us", contains.MeanUs(), "us");
  out->Add("delta.filter_skip_rate", filter_skip_rate, "ratio");
  out->Add("delta.l0_runs", l0_runs, "count");
  out->Add("delta.insert_us", insert.MeanUs(), "us");
  out->Add("delta.write_amp", write_amp, "ratio");
  out->Add("delta.drains", drains, "count");
  out->Add("delta.publish_us", publish.MeanUs(), "us");
  out->Add("dict.encode_us", encode.MeanUs(), "us");
  out->Add("dict.lookup_us", lookup.MeanUs(), "us");
  out->Add("rdf.parse_us", rdf_parse.MeanUs(), "us");
  out->Add("wal.logged_write_us", logged_write.MeanUs(), "us");
  out->Add("wal.fsyncs", fsyncs, "count");
  out->Add("wal.checkpoints", checkpoints, "count");
  out->Add("wal.recovery_s", recovery_s, "s");
  out->Add("shard.scatter_reads_per_query", scatter_reads_per_query, "count");
  out->Add("shard.routed_writes", routed_writes, "count");
  out->Add("server.handle_query_us", handle_query.MeanUs(), "us");
  out->Add("server.handle_insert_us", handle_insert.MeanUs(), "us");
  out->Add("server.handle_erase_us", handle_erase.MeanUs(), "us");
  out->Add("server.transport_us", transport_us, "us");
  out->Add("bench.calib_s", calib_s, "s");
}

}  // namespace hexbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hexbench --workload paper_sparql|probe_mix|http_mixed "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--workdir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  hexbench::MarkProcessStart();
  // Keep freed memory in the heap instead of returning it to the kernel:
  // the repeated loads and reloads then reuse pages rather than fault in
  // fresh ones, whose cost swings with the host's memory traffic.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  hexbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      options.size = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (options.seconds <= 0 ||
      (options.size != "full" && options.size != "tiny")) {
    Usage();
    return 2;
  }
  if (!hexbench::MakeDirs(options.workdir)) {
    std::fprintf(stderr, "hexbench: cannot create %s\n",
                 options.workdir.c_str());
    return 2;
  }

  hexbench::RunResult result;
  if (options.workload == "paper_sparql") {
    result = hexbench::RunPaperSparql(options);
  } else if (options.workload == "probe_mix") {
    result = hexbench::RunProbeMix(options);
  } else if (options.workload == "http_mixed") {
    result = hexbench::RunHttpMixed(options);
  } else {
    Usage();
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "hexbench: the run attempted no operation\n");
    return 1;
  }
  std::printf("%s\n", hexbench::ResultJson(result).c_str());
  return 0;
}
