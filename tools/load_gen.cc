// load_gen — synthetic traffic against a running query engine (DESIGN.md
// §11) or ingest server (DESIGN.md §14).
//
//   load_gen --port P [--threads 4] [--seconds 2] [--pipeline 16]
//            [--batch 0] [--max-requests 0]
//   load_gen --port P --ingest [--threads 4] [--seconds 2] [--pipeline 16]
//            [--dup-every 0] [--max-requests 0] [--world DIR]
//
// Query mode discovers the address keyspace from the engine's /inventory
// endpoint, then drives it from `--threads` keep-alive connections, each
// writing pipelined bursts of `--pipeline` GET /query requests (or, with
// `--batch N`, POST /query_batch bodies of N ids) and reading the
// responses back in order. Key streams are deterministic per thread.
//
// Ingest mode makes each thread one producer client (`lg-<i>`) streaming
// deterministic synthetic trips as transactional POST /ingest batches of
// `--pipeline` records (trips span batches freely). `--world DIR` replays
// that world's recorded trips instead, waybills included, so the listener
// has labels to train on: thread i sends trips i, i+N, i+2N, ... of N
// threads (world order at `--threads 1`) and stops after its last trip;
// --seconds does not apply. `--dup-every M`
// re-sends every Mth POST verbatim — an injected producer retry the server
// must ack as an exact no-op ("deduped"). A 429 is honoured by sleeping its
// Retry-After and re-sending the same batch (counted as shed); anything
// other than 2xx/429 is an error.
//
// Each mode prints one machine-readable summary line:
//
//   load_gen: requests=N qps=Q p50_ms=A p99_ms=B p999_ms=C shed=S errors=E
//   load_gen: ingest records=N acked=A deduped=D rps=R p50_ms=X p99_ms=Y
//             shed=S errors=E
//
// and exits nonzero on any transport failure or unexpected status, so CI
// smoke steps can gate on it directly. Latency per request is measured as
// its burst's round-trip time — an upper bound for every request in the
// burst; in ingest mode it is the per-POST ack latency.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/http_conn.h"
#include "common/string_util.h"
#include "sim/world_io.h"
#include "stream/ingest_server.h"

namespace {

using dlinf::ParseNumberFlag;
using dlinf::apps::HttpClient;
using dlinf::apps::HttpGetOnce;

struct Options {
  int port = 0;
  int threads = 4;
  double seconds = 2.0;
  int pipeline = 16;
  int batch = 0;  ///< 0: single GETs; N>0: /query_batch of N ids.
  int64_t max_requests = 0;  ///< 0: until --seconds elapses.
  bool ingest = false;       ///< Drive POST /ingest instead of /query.
  int dup_every = 0;         ///< Ingest: re-send every Mth POST (0: never).
  std::string world_dir;     ///< Ingest: replay this world's trips.
};

struct ThreadStats {
  int64_t requests = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t acked = 0;    ///< Ingest mode: fresh records the server committed.
  int64_t deduped = 0;  ///< Ingest mode: retried records acked as no-ops.
  std::vector<double> latency_s;  ///< One entry per request (burst RTT).
  std::string first_error;
};

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    // Strict: the whole value must parse, so "--port 19x80" is an error
    // rather than port 19.
    auto number = [&](auto* out) {
      return ParseNumberFlag(arg, argv[++i], out);
    };
    bool ok = true;
    if (arg == "--port" && has_value) {
      ok = number(&options->port);
    } else if (arg == "--threads" && has_value) {
      ok = number(&options->threads);
    } else if (arg == "--seconds" && has_value) {
      ok = number(&options->seconds);
    } else if (arg == "--pipeline" && has_value) {
      ok = number(&options->pipeline);
    } else if (arg == "--batch" && has_value) {
      ok = number(&options->batch);
    } else if (arg == "--max-requests" && has_value) {
      ok = number(&options->max_requests);
    } else if (arg == "--ingest") {
      options->ingest = true;
    } else if (arg == "--dup-every" && has_value) {
      ok = number(&options->dup_every);
    } else if (arg == "--world" && has_value) {
      options->world_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or valueless argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (options->port <= 0 || options->threads < 1 || options->pipeline < 1 ||
      (!options->world_dir.empty() && !options->ingest)) {
    std::fprintf(stderr,
                 "usage: load_gen --port P [--ingest [--world DIR]] "
                 "[--threads N] [--seconds S] [--pipeline D] [--batch B] "
                 "[--dup-every M] [--max-requests M]\n");
    return false;
  }
  return true;
}

void RunClient(const Options& options, int thread_index,
               int64_t address_count, ThreadStats* stats) {
  HttpClient client;
  std::string error;
  if (!client.Connect(options.port, &error)) {
    stats->errors = 1;
    stats->first_error = "connect: " + error;
    return;
  }
  const double deadline = NowSeconds() + options.seconds;
  // Deterministic per-thread key stream: a fixed stride walk over the
  // inventory, disjoint phases per thread.
  int64_t cursor = (thread_index * 7919) % address_count;
  const int64_t stride = 13;
  const int64_t per_thread_cap =
      options.max_requests > 0
          ? (options.max_requests + options.threads - 1) / options.threads
          : 0;

  while (NowSeconds() < deadline &&
         (per_thread_cap == 0 || stats->requests < per_thread_cap)) {
    const double start = NowSeconds();
    int in_flight = 0;
    std::string burst;
    std::vector<int> expect_answers;
    if (options.batch > 0) {
      std::string payload = "{\"address_ids\":[";
      for (int i = 0; i < options.batch; ++i) {
        if (i > 0) payload += ",";
        payload += std::to_string(cursor);
        cursor = (cursor + stride) % address_count;
      }
      payload += "]}";
      burst = "POST /query_batch HTTP/1.1\r\nHost: h\r\nContent-Type: "
              "application/json\r\nContent-Length: " +
              std::to_string(payload.size()) + "\r\n\r\n" + payload;
      in_flight = 1;
    } else {
      for (int i = 0; i < options.pipeline; ++i) {
        burst += "GET /query?address_id=" + std::to_string(cursor) +
                 " HTTP/1.1\r\nHost: h\r\n\r\n";
        cursor = (cursor + stride) % address_count;
      }
      in_flight = options.pipeline;
    }
    if (!client.SendRaw(burst)) {
      ++stats->errors;
      if (stats->first_error.empty()) stats->first_error = "send failed";
      return;
    }
    bool burst_ok = true;
    int64_t burst_shed = 0;
    for (int i = 0; i < in_flight; ++i) {
      int status = 0;
      std::string body;
      if (!client.ReadResponse(&status, &body, &error)) {
        ++stats->errors;
        if (stats->first_error.empty()) {
          stats->first_error = "read: " + error;
        }
        return;
      }
      if (status != 200) {
        ++stats->errors;
        burst_ok = false;
        if (stats->first_error.empty()) {
          stats->first_error =
              "status " + std::to_string(status) + ": " + body;
        }
      }
      size_t pos = 0;
      while ((pos = body.find("\"shed\":true", pos)) != std::string::npos) {
        ++burst_shed;
        pos += 11;
      }
    }
    const double elapsed = NowSeconds() - start;
    const int answered =
        options.batch > 0 ? options.batch : options.pipeline;
    stats->requests += answered;
    stats->shed += burst_shed;
    if (burst_ok) {
      for (int i = 0; i < answered; ++i) {
        stats->latency_s.push_back(elapsed);
      }
    }
  }
}

/// Pulls the integer after `"key":` out of a flat JSON object, -1 if absent.
int64_t JsonInt(const std::string& body, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = body.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(body.c_str() + pos + needle.size());
}

/// One producer client's record stream. Synthetic trips never end, and trip
/// t of thread i always yields the same records, so a re-run (or a retry
/// after a crash) replays the identical byte stream. A replayed world ends
/// after the thread's last trip.
class IngestStream {
 public:
  IngestStream(int thread_index, int threads, const dlinf::sim::World* world)
      : client_id_("lg-" + std::to_string(thread_index)),
        courier_id_(1000 + thread_index),
        world_(world),
        next_trip_(static_cast<size_t>(thread_index)),
        trip_stride_(static_cast<size_t>(threads)) {}

  /// The next protocol line into *line; false once a replayed world ran out.
  bool NextLine(std::string* line) {
    if (world_ == nullptr) {
      *line = NextSyntheticLine();
      return true;
    }
    while (next_record_ == trip_records_.size()) {
      if (next_trip_ >= world_->trips.size()) return false;
      trip_records_ = dlinf::stream::TripRecords(
          client_id_, world_->trips[next_trip_], &seq_);
      next_record_ = 0;
      next_trip_ += trip_stride_;
    }
    *line = dlinf::stream::FormatIngestLine(trip_records_[next_record_++]);
    return true;
  }

 private:
  /// The next synthetic line, advancing the trip state machine.
  std::string NextSyntheticLine() {
    using dlinf::stream::FormatIngestLine;
    using dlinf::stream::IngestRecord;
    IngestRecord record;
    record.client_id = client_id_;
    record.seq = ++seq_;
    if (point_index_ == 0) {
      record.kind = IngestRecord::Kind::kStartTrip;
      record.courier_id = courier_id_;
      record.start_time = static_cast<double>(trip_index_) * 3600.0;
      record.end_time = record.start_time + 3600.0;
      ++point_index_;
    } else if (point_index_ <= points_per_trip()) {
      record.kind = IngestRecord::Kind::kPoint;
      // A deterministic drifting walk; values only need to be stable.
      const double k = static_cast<double>(point_index_);
      record.x = 100.0 * courier_id_ + 10.0 * trip_index_ + k * 0.5;
      record.y = 50.0 * courier_id_ + 5.0 * trip_index_ + k * 0.25;
      record.t = static_cast<double>(trip_index_) * 3600.0 + k * 15.0;
      ++point_index_;
    } else {
      record.kind = IngestRecord::Kind::kFinishTrip;
      point_index_ = 0;
      ++trip_index_;
    }
    return FormatIngestLine(record);
  }

  int64_t points_per_trip() const { return 6 + trip_index_ % 5; }

  std::string client_id_;
  int64_t courier_id_;
  uint64_t seq_ = 0;
  int64_t trip_index_ = 0;
  int64_t point_index_ = 0;

  const dlinf::sim::World* world_;  ///< Replayed world; nullptr: synthetic.
  size_t next_trip_;
  size_t trip_stride_;
  std::vector<dlinf::stream::IngestRecord> trip_records_;
  size_t next_record_ = 0;
};

void RunIngestClient(const Options& options, int thread_index,
                     const dlinf::sim::World* world, ThreadStats* stats) {
  HttpClient client;
  std::string error;
  if (!client.Connect(options.port, &error)) {
    stats->errors = 1;
    stats->first_error = "connect: " + error;
    return;
  }
  IngestStream ingest_stream(thread_index, options.threads, world);
  const double deadline = world != nullptr
                              ? std::numeric_limits<double>::infinity()
                              : NowSeconds() + options.seconds;
  const int64_t per_thread_cap =
      options.max_requests > 0
          ? (options.max_requests + options.threads - 1) / options.threads
          : 0;
  int64_t posts = 0;

  while (NowSeconds() < deadline &&
         (per_thread_cap == 0 || stats->requests < per_thread_cap)) {
    std::string body;
    std::string line;
    int64_t records = 0;
    while (records < options.pipeline && ingest_stream.NextLine(&line)) {
      body += line;
      body += '\n';
      ++records;
    }
    if (records == 0) break;
    ++posts;
    const bool duplicate =
        options.dup_every > 0 && posts % options.dup_every == 0;
    // Each batch (and its optional verbatim duplicate) is retried through
    // 429 backpressure until the server commits it.
    for (int attempt = 0; attempt < 1 + (duplicate ? 1 : 0); ++attempt) {
      for (;;) {
        const double start = NowSeconds();
        if (!client.SendPost("/ingest", body)) {
          ++stats->errors;
          if (stats->first_error.empty()) stats->first_error = "send failed";
          return;
        }
        int status = 0;
        std::vector<std::pair<std::string, std::string>> headers;
        std::string response;
        if (!client.ReadResponse(&status, &headers, &response, &error)) {
          ++stats->errors;
          if (stats->first_error.empty()) stats->first_error = "read: " + error;
          return;
        }
        if (status == 429) {
          ++stats->shed;
          double retry_after_s = 0.05;
          for (const auto& [name, value] : headers) {
            if (name == "retry-after") retry_after_s = std::atof(value.c_str());
          }
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(retry_after_s, 1.0)));
          continue;
        }
        if (status != 200) {
          ++stats->errors;
          if (stats->first_error.empty()) {
            stats->first_error =
                "status " + std::to_string(status) + ": " + response;
          }
          return;
        }
        stats->requests += records;
        stats->acked += std::max<int64_t>(0, JsonInt(response, "acked"));
        stats->deduped += std::max<int64_t>(0, JsonInt(response, "deduped"));
        stats->latency_s.push_back(NowSeconds() - start);
        break;
      }
    }
  }
}

double Percentile(std::vector<double>* sorted_in_place, double q) {
  if (sorted_in_place->empty()) return 0.0;
  const size_t rank = std::min(
      sorted_in_place->size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_in_place->size())));
  return (*sorted_in_place)[rank];
}

}  // namespace

int RunIngestMode(const Options& options) {
  std::optional<dlinf::sim::World> world;
  if (!options.world_dir.empty()) {
    world = dlinf::sim::LoadWorldCsv(options.world_dir);
    if (!world) {
      std::fprintf(stderr, "error: cannot load world from %s\n",
                   options.world_dir.c_str());
      return 2;
    }
  }
  std::printf("load_gen: ingest mode, %d threads, %d records/post%s\n",
              options.threads, options.pipeline,
              options.dup_every > 0
                  ? (", dup every " + std::to_string(options.dup_every))
                        .c_str()
                  : "");
  std::vector<ThreadStats> stats(static_cast<size_t>(options.threads));
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (int i = 0; i < options.threads; ++i) {
    threads.emplace_back(RunIngestClient, options, i,
                         world ? &*world : nullptr,
                         &stats[static_cast<size_t>(i)]);
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = NowSeconds() - start;

  int64_t records = 0;
  int64_t acked = 0;
  int64_t deduped = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  std::vector<double> latency;
  for (const ThreadStats& thread_stats : stats) {
    records += thread_stats.requests;
    acked += thread_stats.acked;
    deduped += thread_stats.deduped;
    shed += thread_stats.shed;
    errors += thread_stats.errors;
    latency.insert(latency.end(), thread_stats.latency_s.begin(),
                   thread_stats.latency_s.end());
    if (!thread_stats.first_error.empty()) {
      std::fprintf(stderr, "error: %s\n", thread_stats.first_error.c_str());
    }
  }
  // Every record sent must have been accounted for by the server — a
  // mismatch means an ack was lost or double-applied.
  if (acked + deduped != records) {
    std::fprintf(stderr,
                 "error: ack accounting mismatch: sent %lld, acked %lld + "
                 "deduped %lld\n",
                 static_cast<long long>(records),
                 static_cast<long long>(acked),
                 static_cast<long long>(deduped));
    ++errors;
  }
  std::sort(latency.begin(), latency.end());
  const double rps = wall > 0.0 ? static_cast<double>(records) / wall : 0.0;
  std::printf(
      "load_gen: ingest records=%lld acked=%lld deduped=%lld rps=%.0f "
      "p50_ms=%.3f p99_ms=%.3f shed=%lld errors=%lld\n",
      static_cast<long long>(records), static_cast<long long>(acked),
      static_cast<long long>(deduped), rps, Percentile(&latency, 0.50) * 1e3,
      Percentile(&latency, 0.99) * 1e3, static_cast<long long>(shed),
      static_cast<long long>(errors));
  return errors == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  if (options.ingest) return RunIngestMode(options);

  // Keyspace discovery.
  int status = 0;
  std::string body;
  if (!HttpGetOnce(options.port, "/inventory", &status, &body) ||
      status != 200) {
    std::fprintf(stderr, "error: /inventory on port %d failed (status %d)\n",
                 options.port, status);
    return 2;
  }
  const size_t count_pos = body.find("\"count\":");
  const int64_t address_count =
      count_pos == std::string::npos
          ? 0
          : std::atoll(body.c_str() + count_pos + std::strlen("\"count\":"));
  if (address_count <= 0) {
    std::fprintf(stderr, "error: engine reports empty inventory: %s\n",
                 body.c_str());
    return 2;
  }
  std::printf("load_gen: %lld addresses, %d threads, pipeline %d%s\n",
              static_cast<long long>(address_count), options.threads,
              options.pipeline,
              options.batch > 0 ? (", batch " + std::to_string(options.batch))
                                      .c_str()
                                : "");

  std::vector<ThreadStats> stats(static_cast<size_t>(options.threads));
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (int i = 0; i < options.threads; ++i) {
    threads.emplace_back(RunClient, options, i, address_count,
                         &stats[static_cast<size_t>(i)]);
  }
  for (std::thread& thread : threads) thread.join();
  const double wall = NowSeconds() - start;

  int64_t requests = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  std::vector<double> latency;
  for (const ThreadStats& thread_stats : stats) {
    requests += thread_stats.requests;
    shed += thread_stats.shed;
    errors += thread_stats.errors;
    latency.insert(latency.end(), thread_stats.latency_s.begin(),
                   thread_stats.latency_s.end());
    if (!thread_stats.first_error.empty()) {
      std::fprintf(stderr, "error: %s\n", thread_stats.first_error.c_str());
    }
  }
  std::sort(latency.begin(), latency.end());
  const double qps = wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;
  std::printf(
      "load_gen: requests=%lld qps=%.0f p50_ms=%.3f p99_ms=%.3f "
      "p999_ms=%.3f shed=%lld errors=%lld\n",
      static_cast<long long>(requests), qps,
      Percentile(&latency, 0.50) * 1e3, Percentile(&latency, 0.99) * 1e3,
      Percentile(&latency, 0.999) * 1e3, static_cast<long long>(shed),
      static_cast<long long>(errors));
  return errors == 0 ? 0 : 1;
}
