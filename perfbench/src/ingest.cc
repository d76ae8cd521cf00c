// The `ingest` workload: the simulated world's courier trips, streamed
// open-loop as POST /ingest batches into a WAL-backed IngestServer, after
// an untimed fixture has ingested the first part of the stream and the
// timed set-up has recovered it.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/http_conn.h"
#include "dlinfma/candidate_generation.h"
#include "dlinfma/metrics.h"
#include "io/wal_frame.h"
#include "host_speed.h"
#include "layer_trace.h"
#include "open_loop.h"
#include "sim/generator.h"
#include "stream/ingest_server.h"
#include "stream/stream_pipeline.h"
#include "stream/wal.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dlinf::stream::IngestRecord;
using dlinf::stream::IngestServer;

constexpr double kRecordsPerSecond = 20000.0;
constexpr int kProducers = 4;
constexpr size_t kBatchRecords = 32;
constexpr int kFixtureTrips = 450;  ///< Ingested before set-up (untimed).
constexpr int kSetupRepeats = 15;   ///< IngestServer::Start per run.
/// Fewest finish_trip batches a window needs to count toward freshness_s
/// (a 2 s window holds ~180 at this rate).
constexpr size_t kMinFinishesPerWindow = 30;
/// Admission bound of the ingest queue (`dlinf_cli stream --max-queue`,
/// default 4096, ~200 ms of this stream). Every WAL rotation fsyncs the
/// sealed 4 MiB segment on the writer thread; probes saw that stall the
/// writer for over 150 ms, so the default queue sheds with 429 and every
/// later batch of that producer fails with a sequence gap.
constexpr uint64_t kMaxQueueRecords = 65536;
/// Snapshot compaction every this many WAL segment rotations.
constexpr uint64_t kSnapshotEverySegments = 2;

/// One POST body and what it carries.
struct Batch {
  std::string body;
  std::vector<std::string> lines;
  int finished_trips = 0;  ///< finish_trip records in the batch.
};

/// One producer's share of the stream, cut into fixture and run batches.
struct Producer {
  std::string client;
  std::vector<Batch> fixture;
  std::vector<Batch> run;
};

/// The ingest world: SynDowBJ's city and couriers, with enough days that
/// the stream outlasts the fixture plus `seconds` at the target rate. It is
/// fixed across seeds; the seed drives the arrival schedule.
dlinf::sim::World IngestWorld(double seconds) {
  dlinf::sim::SimConfig config = dlinf::sim::SynDowBJConfig();
  // ~224 fixes per trip; 30% headroom over the records the run can send.
  const double run_trips = 1.3 * kRecordsPerSecond * seconds / 224.0;
  const double trips_per_day =
      static_cast<double>(config.num_couriers * config.trips_per_courier_per_day);
  config.num_days = static_cast<int>((kFixtureTrips + run_trips) / trips_per_day) + 1;
  return dlinf::sim::GenerateWorld(config);
}

/// Cuts each producer's records into 32-record batches. Trips go to the
/// producer of their courier (one device per courier), in time order; the
/// first kFixtureTrips trips of the stream form the fixture.
std::vector<Producer> MakeProducers(const dlinf::sim::World& world) {
  std::vector<Producer> producers(kProducers);
  std::vector<uint64_t> seq(kProducers, 0);
  std::vector<std::vector<std::string>> fixture_lines(kProducers);
  std::vector<std::vector<std::string>> run_lines(kProducers);
  for (int p = 0; p < kProducers; ++p) producers[p].client = "courier" + std::to_string(p);
  for (size_t t = 0; t < world.trips.size(); ++t) {
    const auto& trip = world.trips[t];
    const int p = static_cast<int>(trip.courier_id % kProducers);
    auto& lines = static_cast<int>(t) < kFixtureTrips ? fixture_lines[p] : run_lines[p];
    IngestRecord record;
    record.client_id = producers[p].client;
    record.kind = IngestRecord::Kind::kStartTrip;
    record.seq = ++seq[p];
    record.courier_id = trip.courier_id;
    record.start_time = trip.start_time;
    record.end_time = trip.end_time;
    record.waybills = trip.waybills;
    lines.push_back(dlinf::stream::FormatIngestLine(record));
    record.waybills.clear();
    record.kind = IngestRecord::Kind::kPoint;
    for (const auto& point : trip.trajectory.points) {
      record.seq = ++seq[p];
      record.x = point.x;
      record.y = point.y;
      record.t = point.t;
      lines.push_back(dlinf::stream::FormatIngestLine(record));
    }
    record.kind = IngestRecord::Kind::kFinishTrip;
    record.seq = ++seq[p];
    lines.push_back(dlinf::stream::FormatIngestLine(record));
  }
  auto cut = [](const std::vector<std::string>& lines) {
    std::vector<Batch> batches;
    for (size_t i = 0; i < lines.size(); i += kBatchRecords) {
      Batch batch;
      for (size_t j = i; j < std::min(lines.size(), i + kBatchRecords); ++j) {
        batch.body += lines[j];
        batch.body += '\n';
        if (lines[j].rfind("finish_trip", 0) == 0) ++batch.finished_trips;
        batch.lines.push_back(lines[j]);
      }
      batches.push_back(std::move(batch));
    }
    return batches;
  };
  for (int p = 0; p < kProducers; ++p) {
    producers[p].fixture = cut(fixture_lines[p]);
    producers[p].run = cut(run_lines[p]);
  }
  return producers;
}

std::string PostBytes(const std::string& body) {
  return "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string AckBody(size_t records) {
  return "{\"acked\":" + std::to_string(records) + ",\"deduped\":0}\n";
}

/// Error of the best candidate the streamed index offers each delivered
/// address: the bound any model trained on this index can reach. An address
/// with no candidate falls back to its geocode, as the service would.
dlinf::dlinfma::EvalMetrics CandidateQuality(
    const dlinf::sim::World& world,
    const dlinf::dlinfma::CandidateGeneration& generation) {
  std::vector<dlinf::Point> predicted;
  std::vector<dlinf::Point> truth;
  for (const int64_t id : world.DeliveredAddressIds()) {
    const auto& address = world.address(id);
    dlinf::Point best = address.geocoded_location;
    double best_m = std::numeric_limits<double>::infinity();
    for (const int64_t candidate : generation.Retrieve(id)) {
      const dlinf::Point location = generation.candidate(candidate).location;
      const double d = dlinf::Distance(location, address.true_delivery_location);
      if (d < best_m) {
        best_m = d;
        best = location;
      }
    }
    predicted.push_back(best);
    truth.push_back(address.true_delivery_location);
  }
  return dlinf::dlinfma::ComputeMetrics(predicted, truth);
}

/// The traced run's layer pass over the run's own records and trips.
/// `run_trips` are the trips the server applied after the fixture, in apply
/// order.
void LayerPass(const std::vector<std::vector<ScheduledRequest>>& schedules,
               const std::vector<Producer>& producers,
               const std::vector<dlinf::sim::DeliveryTrip>& run_trips,
               const IngestServer::Options& options, const std::string& work_dir,
               RunResult* result) {
  std::vector<const Batch*> sent;
  for (int p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < schedules[p].size(); ++i) sent.push_back(&producers[p].run[i]);
  }
  std::vector<IngestRecord> records;
  int64_t lines = 0;
  for (const Batch* batch : sent) lines += static_cast<int64_t>(batch->lines.size());
  records.reserve(static_cast<size_t>(lines));
  {
    LayerSpan span("ingest_server.parse", lines);
    std::string error;
    for (const Batch* batch : sent) {
      for (const std::string& line : batch->lines) {
        records.emplace_back();
        if (!dlinf::stream::ParseIngestLine(line, &records.back(), &error)) {
          result->Fail("layer pass: ParseIngestLine: " + error);
          return;
        }
      }
    }
  }
  {
    size_t bytes = 0;
    LayerSpan span("ingest_server.format", lines);
    for (const IngestRecord& record : records) {
      bytes += dlinf::stream::FormatIngestLine(record).size();
    }
    if (bytes == 0) result->Fail("layer pass: FormatIngestLine wrote nothing");
  }
  {
    dlinf::stream::WalOptions wal_options = options.wal;
    wal_options.dir = work_dir + "/wal_layer";
    std::filesystem::create_directories(wal_options.dir);
    std::string error;
    auto wal = dlinf::stream::WalWriter::Open(wal_options, &error);
    if (!wal) {
      result->Fail("layer pass: WalWriter::Open: " + error);
      return;
    }
    uint64_t frame_bytes = 0;
    size_t record = 0;
    {
      LayerSpan span("wal.append", lines);
      for (const Batch* batch : sent) {
        std::string frames;
        for (const std::string& line : batch->lines) {
          dlinf::io::AppendWalFrame(static_cast<uint32_t>(records[record++].kind),
                                    line, &frames);
        }
        frame_bytes += frames.size();
        if (!wal->AppendFrames(frames, batch->lines.size(), &error)) {
          result->Fail("layer pass: AppendFrames: " + error);
          return;
        }
      }
    }
    wal->Close();
    result->per_layer["wal.bytes_per_record"] = {
        static_cast<double>(frame_bytes) / static_cast<double>(std::max<int64_t>(1, lines)),
        "B"};
  }
  dlinf::stream::StreamIngestor ingestor(options.city, options.candidates);
  for (const auto& trip : run_trips) {
    ingestor.StartTrip(trip);
    {
      LayerSpan span("stream_pipeline.push_point",
                     static_cast<int64_t>(trip.trajectory.points.size()));
      for (const auto& point : trip.trajectory.points) ingestor.PushPoint(point);
    }
    LayerSpan span("stream_pipeline.finish_trip");
    ingestor.FinishTrip();
  }
}

}  // namespace

RunResult RunIngest(const RunArgs& args) {
  RunResult result;
  const dlinf::sim::World world = IngestWorld(args.seconds);
  std::vector<Producer> producers = MakeProducers(world);

  IngestServer::Options options;
  options.wal.dir = args.work_dir + "/wal";
  options.wal.segment_bytes = 4 << 20;
  options.snapshot_every_segments = kSnapshotEverySegments;
  options.max_queue_records = kMaxQueueRecords;
  options.city = world;
  options.city.trips.clear();
  std::filesystem::create_directories(options.wal.dir);

  // Fixture (untimed): the first part of the stream, then a clean stop.
  int64_t fixture_records = 0;
  int64_t fixture_trips = 0;
  {
    IngestServer server(options);
    std::string error;
    if (!server.Start(&error)) {
      result.Fail("fixture IngestServer::Start failed: " + error);
      return result;
    }
    for (const Producer& producer : producers) {
      dlinf::apps::HttpClient client;
      if (!client.Connect(server.port(), &error)) {
        result.Fail("fixture connect failed: " + error);
        return result;
      }
      for (const Batch& batch : producer.fixture) {
        int status = 0;
        std::string body;
        if (!client.SendPost("/ingest", batch.body) ||
            !client.ReadResponse(&status, &body) || status != 200 ||
            body != AckBody(batch.lines.size())) {
          result.Fail("fixture batch not acked: status " + std::to_string(status) + " " + body);
          return result;
        }
        fixture_records += static_cast<int64_t>(batch.lines.size());
        fixture_trips += batch.finished_trips;
      }
    }
    server.Stop();
  }
  PrintPhase("fixture", fixture_records, fixture_records, 0);

  // Set-up: IngestServer::Start recovering the fixture, repeated; the last
  // server takes the run.
  const double rss_before = RssMiB();
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::unique_ptr<IngestServer> server;
  int64_t recovered = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server) server->Stop();
    server = std::make_unique<IngestServer>(options);
    std::string error;
    bool started = false;
    double raw_s = 0.0;
    setup_s.push_back(NormalizedSeconds(
        [&] {
          LayerSpan span("ingest_server.start");
          started = server->Start(&error);
        },
        args.program_cpus.front(), &raw_s));
    raw_setup_s.push_back(raw_s);
    if (!started) {
      result.Fail("IngestServer::Start (recovery) failed: " + error);
      return result;
    }
    recovered = server->stats().recovered;
  }
  if (server->stats().trips != fixture_trips) {
    result.Fail("recovery restored " + std::to_string(server->stats().trips) +
                " trips, the fixture sent " + std::to_string(fixture_trips));
  }
  PrintPhase("setup", kSetupRepeats, kSetupRepeats, 0);
  // The event loop on one CPU, the WAL writer on the other.
  PinThreadsByName("ingest.loop", args.program_cpus.front());
  PinThreadsByName("ingest.writer", args.program_cpus.back());

  // Load phase: each producer's run batches on a Poisson schedule.
  std::vector<std::vector<ScheduledRequest>> schedules(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    const std::vector<double> arrivals = PoissonArrivals(
        kRecordsPerSecond / kBatchRecords / kProducers, args.seconds, args.seed,
        static_cast<uint64_t>(p));
    if (arrivals.size() > producers[p].run.size()) {
      result.Fail("the ingest world ran out of trips for producer " + std::to_string(p));
      return result;
    }
    for (size_t i = 0; i < arrivals.size(); ++i) {
      schedules[p].push_back({arrivals[i], PostBytes(producers[p].run[i].body)});
    }
  }
  const auto check = [&producers](int connection, size_t index, int status,
                                  std::string_view body) {
    return status == 200 &&
           body == AckBody(producers[connection].run[index].lines.size());
  };
  const auto ack_before = SnapshotHistogram("stream.ingest.ack_seconds");
  const auto threads_before = ThreadCpuByName("ingest.");
  const double cpu_before = ProcessCpuSeconds();
  const double wall_before = Now();
  const LoadReport report = RunOpenLoop(server->port(), schedules, check, 10.0, args.program_cpus, args.generator_cpus);
  const bool idle = server->WaitIdle(10.0);
  const double wall = Now() - wall_before;
  const double program_cpu = ProcessCpuSeconds() - cpu_before -
                             report.generator_cpu_s - report.poller_cpu_s;
  const auto threads_after = ThreadCpuByName("ingest.");
  const auto ack_after = SnapshotHistogram("stream.ingest.ack_seconds");

  int64_t run_records = 0;
  int64_t run_trips = 0;
  // freshness_s is windowed as latency_p50_ms is: per kWindowS window of
  // the schedule, the median of the batches holding a finish_trip, each
  // divided by its window's slowdown; then the median of the windows.
  std::vector<double> finish_latency;
  std::vector<std::vector<double>> finish_windows;
  for (int p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < schedules[p].size(); ++i) {
      run_records += static_cast<int64_t>(producers[p].run[i].lines.size());
      run_trips += producers[p].run[i].finished_trips;
      if (producers[p].run[i].finished_trips > 0 && report.latency_s[p][i] >= 0.0) {
        finish_latency.push_back(report.latency_s[p][i]);
        const size_t w = static_cast<size_t>(report.due_s[p][i] / kWindowS);
        if (finish_windows.size() <= w) finish_windows.resize(w + 1);
        finish_windows[w].push_back(report.latency_s[p][i] /
                                    report.SlowdownAt(report.due_s[p][i]));
      }
    }
  }
  std::vector<double> freshness_windows;
  for (std::vector<double>& window : finish_windows) {
    if (window.size() >= kMinFinishesPerWindow) freshness_windows.push_back(Median(window));
  }
  ReportLoad("ingest", report, run_records, program_cpu, &result);
  const double rss_after = RssMiB();

  // Output checks.
  if (!idle) result.Fail("the ingest queue did not drain");
  server->Stop();
  const IngestServer::Stats stats = server->stats();
  std::printf("ingest stats: acked=%lld deduped=%lld shed=%lld rejected=%lld "
              "recovered=%lld trips=%lld\n",
              static_cast<long long>(stats.acked), static_cast<long long>(stats.deduped),
              static_cast<long long>(stats.shed), static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.recovered), static_cast<long long>(stats.trips));
  int64_t check_failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++check_failures;
      result.Fail(what);
    }
  };
  expect(stats.acked == run_records,
         "acked " + std::to_string(stats.acked) + " of " + std::to_string(run_records) + " records sent");
  expect(stats.deduped == 0, "deduped " + std::to_string(stats.deduped) + " records");
  expect(stats.trips == fixture_trips + run_trips,
         "server finished " + std::to_string(stats.trips) + " trips, producers finished " +
             std::to_string(fixture_trips + run_trips));
  const dlinf::stream::StreamIngestor& ingested = server->ingestor();
  const dlinf::dlinfma::CandidateGeneration streamed = ingested.Snapshot();
  const dlinf::dlinfma::CandidateGeneration batch =
      dlinf::dlinfma::CandidateGeneration::Build(ingested.world(), options.candidates);
  std::printf("stay points: streamed=%zu batch=%zu; clusters=%zu\n",
              streamed.stay_points().size(), batch.stay_points().size(),
              ingested.updater().num_clusters());
  expect(streamed.stay_points().size() == batch.stay_points().size(),
         "streamed stay points differ from batch CandidateGeneration::Build");
  PrintPhase("output_check", 4, 4 - check_failures, check_failures);
  result.attempted += 4;
  result.failed += check_failures;
  const auto quality = CandidateQuality(ingested.world(), streamed);

  auto& layer = result.per_layer;
  if (args.trace) {
    const auto& trips = ingested.world().trips;
    const std::vector<dlinf::sim::DeliveryTrip> run_trips(
        trips.begin() + std::min<int64_t>(fixture_trips, static_cast<int64_t>(trips.size())),
        trips.end());
    LayerPass(schedules, producers, run_trips, options, args.work_dir, &result);
  }
  layer["stream_pipeline.stay_points"] = {static_cast<double>(streamed.stay_points().size()), "count"};
  layer["candidate_updater.clusters"] = {static_cast<double>(ingested.updater().num_clusters()), "count"};
  layer["ingest_server.ack_p50_us"] = {1e6 * DeltaQuantile(ack_before, ack_after, 0.5), "us"};
  layer["ingest_server.ack_p90_us"] = {1e6 * DeltaQuantile(ack_before, ack_after, 0.9), "us"};
  layer["ingest_server.recovered_records"] = {static_cast<double>(recovered), "count"};
  std::error_code ec;
  const auto snapshot_bytes =
      std::filesystem::file_size(IngestServer::SnapshotPath(options.wal.dir), ec);
  layer["ingest_server.snapshot_bytes"] = {ec ? 0.0 : static_cast<double>(snapshot_bytes), "B"};
  int segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(options.wal.dir)) {
    uint64_t index = 0;
    if (dlinf::io::ParseWalSegmentFileName(entry.path().filename().string(), &index)) ++segments;
  }
  layer["wal.segments"] = {static_cast<double>(segments), "count"};
  for (const auto& [name, seconds] : threads_after) {
    const auto before = threads_before.find(name);
    const double busy =
        (seconds - (before == threads_before.end() ? 0.0 : before->second)) / wall;
    if (name == "ingest.loop" || name == "ingest.writer") {
      layer[name + ".busy_frac"] = {busy, "ratio"};
    }
  }

  std::printf("ingest raw: setup_s=%.6f freshness_s=%.6f\n", Median(raw_setup_s),
              Median(finish_latency));
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["mem_mb"] = {rss_after - rss_before, "MiB"};
  result.end_to_end["freshness_s"] = {Median(freshness_windows), "s"};
  result.end_to_end["mae_m"] = {quality.mae_m, "m"};
  result.end_to_end["beta50_pct"] = {quality.beta50_pct, "%"};
  return result;
}

}  // namespace perfbench
