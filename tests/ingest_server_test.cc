#include "stream/ingest_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/http_conn.h"
#include "fault/fault.h"
#include "io/bundle.h"
#include "io/codecs.h"
#include "io/file.h"
#include "io/wal_frame.h"
#include "sim/config.h"
#include "sim/generator.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace dlinf {
namespace {

using apps::HttpClient;
using stream::FormatIngestLine;
using stream::IngestRecord;
using stream::IngestServer;
using stream::ParseIngestLine;
using stream::StreamIngestor;
using ::testing::TempDir;

std::string ScratchDir(const std::string& name) {
  const std::string dir = TempDir() + "/ingest_test." +
                          std::to_string(::getpid()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Small generated world shared by every test: `City()` is its static side
/// (no trips), `Trips()` the recorded trips we stream at it.
const sim::World& FullWorld() {
  static const sim::World* world = [] {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    config.num_communities = 3;
    return new sim::World(sim::GenerateWorld(config));
  }();
  return *world;
}

const sim::World& City() {
  static const sim::World* city = [] {
    auto* c = new sim::World(FullWorld());
    c->trips.clear();
    return c;
  }();
  return *city;
}

/// The protocol lines for one trip from one client, advancing *seq.
std::vector<std::string> TripLines(const std::string& client,
                                   const sim::DeliveryTrip& trip,
                                   uint64_t* seq) {
  std::vector<std::string> lines;
  for (const IngestRecord& record : stream::TripRecords(client, trip, seq)) {
    lines.push_back(FormatIngestLine(record));
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string body;
  for (const std::string& line : lines) {
    body += line;
    body += '\n';
  }
  return body;
}

/// POSTs `body` to /ingest and returns the status (-1 on transport error).
int PostIngest(HttpClient* client, const std::string& body,
               std::string* response = nullptr) {
  if (!client->SendPost("/ingest", body)) return -1;
  int status = 0;
  std::string response_body;
  if (!client->ReadResponse(&status, &response_body)) return -1;
  if (response != nullptr) *response = response_body;
  return status;
}

/// Asserts two ingestors reached bit-identical state: same streamed trips
/// (trajectories byte-equal), same mined stay points, same live centroids.
void ExpectBitIdentical(const StreamIngestor& a, const StreamIngestor& b) {
  ASSERT_EQ(a.world().trips.size(), b.world().trips.size());
  for (size_t i = 0; i < a.world().trips.size(); ++i) {
    const auto& ta = a.world().trips[i];
    const auto& tb = b.world().trips[i];
    EXPECT_EQ(ta.courier_id, tb.courier_id);
    ASSERT_EQ(ta.trajectory.points.size(), tb.trajectory.points.size());
    for (size_t j = 0; j < ta.trajectory.points.size(); ++j) {
      EXPECT_EQ(std::memcmp(&ta.trajectory.points[j],
                            &tb.trajectory.points[j], sizeof(TrajPoint)),
                0);
    }
  }
  const auto stays_a = a.Snapshot().stay_points();
  const auto stays_b = b.Snapshot().stay_points();
  ASSERT_EQ(stays_a.size(), stays_b.size());
  for (size_t i = 0; i < stays_a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&stays_a[i], &stays_b[i], sizeof(StayPoint)), 0);
  }
  const auto centroids_a = a.updater().LiveCentroids();
  const auto centroids_b = b.updater().LiveCentroids();
  ASSERT_EQ(centroids_a.size(), centroids_b.size());
  for (size_t i = 0; i < centroids_a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&centroids_a[i], &centroids_b[i], sizeof(Point)),
              0);
  }
}

IngestServer::Options BaseOptions(const std::string& dir) {
  IngestServer::Options options;
  options.wal.dir = dir;
  options.city = City();
  return options;
}

// --- Protocol codec ---------------------------------------------------------

TEST(IngestProtocolTest, FormatParseRoundTripsRandomRecords) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(-1e4, 1e4);
  for (int i = 0; i < 500; ++i) {
    IngestRecord record;
    const int kind = static_cast<int>(rng() % 3);
    record.client_id = "client-" + std::to_string(rng() % 7);
    record.seq = 1 + rng() % 1000;
    if (kind == 0) {
      record.kind = IngestRecord::Kind::kStartTrip;
      record.courier_id = static_cast<int64_t>(rng() % 100);
      record.start_time = coord(rng);
      record.end_time = coord(rng);
      const size_t waybills = rng() % 3;
      for (size_t w = 0; w < waybills; ++w) {
        sim::Waybill wb;
        wb.id = static_cast<int64_t>(rng() % 1000);
        wb.address_id = static_cast<int64_t>(rng() % 1000);
        wb.receive_time = coord(rng);
        wb.recorded_delivery_time = coord(rng);
        wb.actual_delivery_time = coord(rng);
        record.waybills.push_back(wb);
      }
    } else if (kind == 1) {
      record.kind = IngestRecord::Kind::kPoint;
      record.x = coord(rng);
      record.y = coord(rng);
      record.t = coord(rng);
    } else {
      record.kind = IngestRecord::Kind::kFinishTrip;
    }

    IngestRecord parsed;
    std::string error;
    ASSERT_TRUE(ParseIngestLine(FormatIngestLine(record), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.kind, record.kind);
    EXPECT_EQ(parsed.client_id, record.client_id);
    EXPECT_EQ(parsed.seq, record.seq);
    EXPECT_EQ(FormatIngestLine(parsed), FormatIngestLine(record));
  }
}

TEST(IngestProtocolTest, MalformedLinesAreTypedNeverAborting) {
  const std::vector<std::string> bad = {
      "",
      "frobnicate c 1",
      "point c 0 1 2 3",          // seq 0 invalid
      "point c x 1 2 3",          // non-numeric seq
      "point c 1 1 2",            // missing field
      "point c 1 1 2 3 4",        // extra field
      "start_trip c 1 7 0.0",     // missing t1
      "start_trip c 1 7 a b",     // bad numerics
      "start_trip c 1 7 0 1 wb=1:2:3",  // short waybill
      "start_trip c 1 7 0 1 zz=1",      // unknown token
      "finish_trip c 1 extra",
      "finish_trip c",
  };
  for (const std::string& line : bad) {
    IngestRecord record;
    std::string error;
    EXPECT_FALSE(ParseIngestLine(line, &record, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

// --- End-to-end -------------------------------------------------------------

TEST(IngestServerTest, StreamedTripsMatchDirectIngestorBitIdentical) {
  IngestServer server(BaseOptions(ScratchDir("e2e")));
  ASSERT_TRUE(server.Start());

  const auto& trips = FullWorld().trips;
  ASSERT_GE(trips.size(), 4u);

  // Two interleaved clients, one POST per record batch of a whole trip.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  uint64_t seq_a = 0;
  uint64_t seq_b = 0;
  std::vector<const sim::DeliveryTrip*> finish_order;
  for (size_t i = 0; i + 1 < trips.size(); i += 2) {
    ASSERT_EQ(PostIngest(&client,
                         JoinLines(TripLines("a", trips[i], &seq_a))),
              200);
    finish_order.push_back(&trips[i]);
    ASSERT_EQ(PostIngest(&client,
                         JoinLines(TripLines("b", trips[i + 1], &seq_b))),
              200);
    finish_order.push_back(&trips[i + 1]);
  }
  ASSERT_TRUE(server.WaitIdle(20.0));
  server.Stop();

  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip* trip : finish_order) {
    reference.ReplayTrip(*trip);
  }
  ExpectBitIdentical(server.ingestor(), reference);

  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, static_cast<int64_t>(seq_a + seq_b));
  EXPECT_EQ(stats.deduped, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.trips, static_cast<int64_t>(finish_order.size()));
  EXPECT_EQ(stats.received, stats.acked);
}

/// The bytes of `world` as a world artifact written under `dir`.
std::string WorldBytes(const sim::World& world, const std::string& dir) {
  const std::string path = dir + "/world_bytes.art";
  EXPECT_TRUE(io::SaveWorldArtifact(world, path));
  std::string bytes;
  EXPECT_TRUE(io::ReadFile(path, &bytes));
  return bytes;
}

/// Every delivered address's inferred location from the bundle in `dir`.
std::vector<Point> InferBundle(const std::string& dir) {
  std::string error;
  std::optional<io::WarmBundle> bundle = io::LoadBundle(dir, &error);
  EXPECT_TRUE(bundle.has_value()) << error;
  if (!bundle) return {};
  return bundle->method->InferAll(bundle->data,
                                  io::AllSamples(bundle->samples));
}

/// One retrain round on each side of the equivalence: the state streamed
/// into `server` over HTTP, and the in-process `replay` of the same trips.
/// Both must publish byte-equal model, candidate and sample artifacts whose
/// answers agree, over worlds that are equal once the planned stays are
/// cleared (ground truth that never goes on the wire).
void ExpectSameRound(IngestServer* server, stream::OnlineTrainer* streamed,
                     const StreamIngestor& replay,
                     stream::OnlineTrainer* replayed,
                     const std::string& scratch) {
  ASSERT_TRUE(server->WaitIdle(20.0));
  IngestServer::State state = server->CopyState();
  const sim::World& world = state.world;
  const stream::OnlineTrainer::RoundResult a =
      streamed->Retrain(world, std::move(state.generation));
  const stream::OnlineTrainer::RoundResult b =
      replayed->Retrain(replay.world(), replay.Snapshot());
  ASSERT_TRUE(a.trained && a.published) << a.skip_reason << a.publish_error;
  ASSERT_TRUE(b.trained && b.published) << b.skip_reason << b.publish_error;
  EXPECT_EQ(a.train_samples, b.train_samples);
  EXPECT_EQ(a.val_samples, b.val_samples);

  sim::World expected = replay.world();
  for (sim::DeliveryTrip& trip : expected.trips) trip.planned_stays.clear();
  EXPECT_EQ(WorldBytes(world, scratch), WorldBytes(expected, scratch));

  const std::string streamed_dir = scratch + "/streamed";
  const std::string replayed_dir = scratch + "/replayed";
  for (const char* name : {"model.art", "candidates.art", "samples.art"}) {
    std::string streamed_bytes;
    std::string replayed_bytes;
    ASSERT_TRUE(io::ReadFile(streamed_dir + "/" + name, &streamed_bytes));
    ASSERT_TRUE(io::ReadFile(replayed_dir + "/" + name, &replayed_bytes));
    EXPECT_TRUE(streamed_bytes == replayed_bytes) << name;
  }
  const std::vector<Point> streamed_answers = InferBundle(streamed_dir);
  const std::vector<Point> replayed_answers = InferBundle(replayed_dir);
  ASSERT_EQ(streamed_answers.size(), replayed_answers.size());
  ASSERT_FALSE(streamed_answers.empty());
  EXPECT_EQ(std::memcmp(streamed_answers.data(), replayed_answers.data(),
                        streamed_answers.size() * sizeof(Point)),
            0);
}

TEST(IngestServerTest, StreamedRoundsMatchInProcessReplay) {
  const std::vector<sim::DeliveryTrip>& trips = FullWorld().trips;
  const size_t round_at = trips.size() / 2;
  const std::string scratch = ScratchDir("rounds");
  stream::OnlineTrainer::Options options;
  options.train.max_epochs = 3;
  options.train.early_stop_patience = 3;
  options.publish_dir = scratch + "/streamed";
  stream::OnlineTrainer streamed(options);
  options.publish_dir = scratch + "/replayed";
  stream::OnlineTrainer replayed(options);

  IngestServer server(BaseOptions(ScratchDir("rounds_wal")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  StreamIngestor replay(City(), {});
  uint64_t seq = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    ASSERT_EQ(PostIngest(&client, JoinLines(TripLines("a", trips[i], &seq))),
              200);
    replay.ReplayTrip(trips[i]);
    if (i + 1 == round_at) {
      ExpectSameRound(&server, &streamed, replay, &replayed, scratch);
      ASSERT_FALSE(HasFatalFailure());
    }
  }
  ExpectSameRound(&server, &streamed, replay, &replayed, scratch);
  EXPECT_EQ(streamed.rounds_completed(), 2);
  server.Stop();
}

// Retrain rounds copy the state while producers keep posting: every copy
// must land between two batches, never inside one.
TEST(IngestServerTest, CopyStateDuringConcurrentPostsIsConsistent) {
  IngestServer server(BaseOptions(ScratchDir("copy_state")));
  ASSERT_TRUE(server.Start());
  const std::vector<sim::DeliveryTrip>& trips = FullWorld().trips;
  constexpr int kClients = 3;
  constexpr int kPasses = 10;  ///< Each client streams every trip this often.
  std::vector<std::thread> producers;
  std::atomic<int> failures{0};
  std::atomic<int> finished{0};
  for (int c = 0; c < kClients; ++c) {
    producers.emplace_back([&, c] {
      HttpClient client;
      if (!client.Connect(server.port())) failures.fetch_add(1);
      uint64_t seq = 0;
      const std::string id = "c" + std::to_string(c);
      for (size_t i = 0; client.connected() && i < kPasses * trips.size();
           ++i) {
        const sim::DeliveryTrip& trip = trips[i % trips.size()];
        if (PostIngest(&client, JoinLines(TripLines(id, trip, &seq))) != 200) {
          failures.fetch_add(1);
        }
      }
      finished.fetch_add(1);
    });
  }
  int inconsistent = 0;
  do {
    const int64_t trips_before = server.stats().trips;
    const IngestServer::State state = server.CopyState();
    const int64_t trips_after = server.stats().trips;
    const int64_t copied = static_cast<int64_t>(state.world.trips.size());
    if (copied != state.generation.num_trips() || copied < trips_before ||
        copied > trips_after) {
      ++inconsistent;
    }
  } while (finished.load() < kClients);
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(inconsistent, 0);
  EXPECT_EQ(server.stats().trips,
            static_cast<int64_t>(kClients * kPasses * trips.size()));
  server.Stop();
}

TEST(IngestServerTest, RetriedPostIsAnExactNoOp) {
  IngestServer server(BaseOptions(ScratchDir("dedup")));
  ASSERT_TRUE(server.Start());

  uint64_t seq = 0;
  const std::string body =
      JoinLines(TripLines("retry-client", FullWorld().trips[0], &seq));

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::string response;
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":" + std::to_string(seq)),
            std::string::npos)
      << response;
  ASSERT_TRUE(server.WaitIdle(10.0));
  const IngestServer::Stats before = server.stats();

  // The identical POST again: acked as a no-op, nothing re-applied.
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":0"), std::string::npos) << response;
  EXPECT_NE(response.find("\"deduped\":" + std::to_string(seq)),
            std::string::npos)
      << response;
  ASSERT_TRUE(server.WaitIdle(10.0));
  const IngestServer::Stats after = server.stats();
  EXPECT_EQ(after.acked, before.acked);
  EXPECT_EQ(after.deduped, before.deduped + static_cast<int64_t>(seq));
  EXPECT_EQ(after.trips, before.trips);
  server.Stop();
  EXPECT_EQ(server.ingestor().num_trips(), 1);
}

TEST(IngestServerTest, SequenceGapAndLifecycleViolationsAreTyped409s) {
  IngestServer server(BaseOptions(ScratchDir("gap")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Gap: first record must be seq 1.
  std::string response;
  ASSERT_EQ(PostIngest(&client, "start_trip g 5 1 0 100\n", &response), 409);
  EXPECT_NE(response.find("expected 1"), std::string::npos) << response;

  // Lifecycle: a point with no open trip.
  ASSERT_EQ(PostIngest(&client, "point g 1 1.0 2.0 3.0\n", &response), 409);
  EXPECT_NE(response.find("lifecycle"), std::string::npos) << response;

  // A failed batch leaves no trace: the correct sequence still starts at 1.
  ASSERT_EQ(PostIngest(&client, "start_trip g 1 1 0 100\n", &response), 200);

  // Malformed body → 400.
  ASSERT_EQ(PostIngest(&client, "point g 2 not-a-number 0 0\n", &response),
            400);
  ASSERT_EQ(PostIngest(&client, "\n\n", &response), 400);

  ASSERT_TRUE(server.WaitIdle(10.0));
  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, 1);
  // The blank-body 400 carries zero parsed records, so it adds nothing.
  EXPECT_GE(stats.rejected, 3);
  server.Stop();
}

TEST(IngestServerTest, MalformedBatchRejectsEveryRecordInIt) {
  IngestServer server(BaseOptions(ScratchDir("malformed-count")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Three lines with the malformed one in the middle: the 400 rejects the
  // whole batch, so all three records count as rejected — not just the
  // prefix parsed before the bad line.
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip m 1 1 0 100\n"
                       "point m 2 not-a-number 0 0\n"
                       "point m 3 1 2 3\n",
                       &response),
            400);
  ASSERT_TRUE(server.WaitIdle(10.0));
  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.rejected, 3);
  EXPECT_EQ(stats.acked, 0);
  server.Stop();
}

TEST(IngestServerTest, ErrorBodiesEscapeControlCharacters) {
  IngestServer server(BaseOptions(ScratchDir("escape")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // The unknown verb, tab and all, is echoed into the parse error; the
  // JSON body must escape it rather than emit a raw control character.
  std::string response;
  ASSERT_EQ(PostIngest(&client, "bad\tverb c 1\n", &response), 400);
  EXPECT_NE(response.find("\\t"), std::string::npos) << response;
  EXPECT_EQ(response.find('\t'), std::string::npos) << response;
  server.Stop();
}

TEST(IngestServerTest, OversizedRecordIsATyped400NeverAcked) {
  IngestServer::Options options = BaseOptions(ScratchDir("oversized"));
  options.wal.max_record_bytes = 256;
  int64_t acked_before_restart = 0;
  {
    IngestServer server(options);
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));

    // A parseable record whose wire form exceeds the WAL record limit must
    // bounce as a 400 before the WAL append — were it acked, recovery
    // would refuse the frame and truncate away later acked records.
    const std::string long_client(400, 'c');
    std::string response;
    ASSERT_EQ(PostIngest(&client,
                         "start_trip " + long_client + " 1 1 0 100\n",
                         &response),
              400);
    EXPECT_NE(response.find("record limit"), std::string::npos) << response;

    // Normal traffic proceeds, including after the rejected batch.
    ASSERT_EQ(PostIngest(&client,
                         "start_trip ok 1 1 0 100\n"
                         "point ok 2 1 2 3\n"
                         "finish_trip ok 3\n",
                         &response),
              200);
    ASSERT_TRUE(server.WaitIdle(10.0));
    const IngestServer::Stats stats = server.stats();
    EXPECT_EQ(stats.acked, 3);
    EXPECT_EQ(stats.rejected, 1);
    acked_before_restart = stats.acked;
    server.Stop();
  }

  // Restart on the same WAL dir: every acked record replays, nothing lost.
  IngestServer restarted(options);
  ASSERT_TRUE(restarted.Start());
  EXPECT_EQ(restarted.stats().recovered, acked_before_restart);
  restarted.Stop();
}

TEST(IngestServerTest, ClientCapEvictsIdleThenRejectsTyped) {
  IngestServer::Options options = BaseOptions(ScratchDir("client-cap"));
  options.max_clients = 2;
  IngestServer server(options);
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Client a completes a trip (idle), b leaves one open.
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip a 1 1 0 100\n"
                       "point a 2 1 2 3\n"
                       "finish_trip a 3\n",
                       &response),
            200);
  ASSERT_EQ(PostIngest(&client, "start_trip b 1 1 0 100\n", &response), 200);

  // A third client at cap 2: the idle client a is evicted to admit it.
  ASSERT_EQ(PostIngest(&client, "start_trip c 1 1 0 100\n", &response), 200);

  // Now every tracked client (b, c) is mid-trip: a fourth is shed typed.
  ASSERT_EQ(PostIngest(&client, "start_trip d 1 1 0 100\n", &response), 429);
  EXPECT_NE(response.find("client"), std::string::npos) << response;

  // The evicted client's continuation is a typed 409 gap (dedup state is
  // gone), never a silent double-apply.
  ASSERT_EQ(PostIngest(&client, "start_trip a 4 1 0 100\n", &response), 409);
  EXPECT_NE(response.find("expected 1"), std::string::npos) << response;

  // The surviving clients' open trips are untouched by the eviction.
  ASSERT_EQ(PostIngest(&client, "point b 2 1 2 3\nfinish_trip b 3\n",
                       &response),
            200);
  ASSERT_EQ(PostIngest(&client, "point c 2 1 2 3\nfinish_trip c 3\n",
                       &response),
            200);

  ASSERT_TRUE(server.WaitIdle(10.0));
  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.acked, 9);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.trips, 3);
  server.Stop();
}

TEST(IngestServerTest, ReorderFaultDrivesTheGapBranch) {
  IngestServer server(BaseOptions(ScratchDir("reorder")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  fault::ScopedFaultPlan plan(fault::FaultPlan().FailAlways("ingest.reorder"),
                              /*seed=*/3);
  std::string response;
  ASSERT_EQ(PostIngest(&client,
                       "start_trip r 1 1 0 100\npoint r 2 1 2 3\n",
                       &response),
            409);
  EXPECT_NE(response.find("sequence gap"), std::string::npos) << response;
  ASSERT_TRUE(server.WaitIdle(10.0));
  EXPECT_EQ(server.stats().acked, 0);
  server.Stop();
}

TEST(IngestServerTest, FullQueueShedsWith429AndRetryAfter) {
  IngestServer::Options options = BaseOptions(ScratchDir("shed"));
  options.max_queue_records = 2;
  options.retry_after_s = 7;
  IngestServer server(options);
  ASSERT_TRUE(server.Start());

  // Stall the writer so the bounded queue fills.
  fault::ScopedFaultPlan plan(
      fault::FaultPlan().AddLatencyMs("ingest.slow_client", 200.0),
      /*seed=*/5);

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Pipeline several single-record POSTs without reading responses: the
  // first occupies the writer, the next fills the queue, the rest shed.
  const int kPosts = 6;
  std::string wire;
  const std::string body = "start_trip shed-client 1 1 0 100\n";
  for (int i = 0; i < kPosts; ++i) {
    wire += "POST /ingest HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
            "application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
  }
  ASSERT_TRUE(client.SendRaw(wire));

  int shed_responses = 0;
  bool saw_retry_after = false;
  for (int i = 0; i < kPosts; ++i) {
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string response_body;
    ASSERT_TRUE(client.ReadResponse(&status, &headers, &response_body));
    ASSERT_TRUE(status == 200 || status == 429) << status;
    if (status == 429) {
      ++shed_responses;
      for (const auto& [name, value] : headers) {
        if (name == "retry-after") {
          saw_retry_after = true;
          EXPECT_EQ(value, "7");
        }
      }
    }
  }
  EXPECT_GT(shed_responses, 0);
  EXPECT_TRUE(saw_retry_after);
  ASSERT_TRUE(server.WaitIdle(20.0));
  EXPECT_EQ(server.stats().shed, shed_responses);
  // Shed never loses silently: every record either acked, deduped or shed.
  const IngestServer::Stats stats = server.stats();
  EXPECT_EQ(stats.received + stats.shed, kPosts);
  EXPECT_EQ(stats.acked + stats.deduped, stats.received);
  server.Stop();
}

TEST(IngestServerTest, WalFailureReturns503AndRetrySucceeds) {
  IngestServer server(BaseOptions(ScratchDir("wal503")));
  ASSERT_TRUE(server.Start());
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  const std::string body = "start_trip w 1 1 0 100\npoint w 2 1 2 3\n";
  {
    fault::ScopedFaultPlan plan(
        fault::FaultPlan().FailFirst("wal.write_fail", 1), /*seed=*/11);
    std::string response;
    ASSERT_EQ(PostIngest(&client, body, &response), 503);
    EXPECT_NE(response.find("wal append failed"), std::string::npos)
        << response;
  }
  // Dedup state is untouched by the failed batch, so the retry acks fully.
  std::string response;
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"acked\":2"), std::string::npos) << response;
  ASSERT_TRUE(server.WaitIdle(10.0));
  EXPECT_EQ(server.stats().acked, 2);
  server.Stop();
}

TEST(IngestServerTest, FsyncFailureKillsWalUntilRestart) {
  const std::string dir = ScratchDir("fsyncgate");
  IngestServer::Options options = BaseOptions(dir);
  options.wal.fsync_every_n = 1;  // Every acked batch is fsynced.
  const std::string body = "start_trip g 1 1 0 100\npoint g 2 1 2 3\n";
  {
    IngestServer server(options);
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    {
      fault::ScopedFaultPlan plan(
          fault::FaultPlan().FailFirst("wal.fsync_fail", 1), /*seed=*/11);
      std::string response;
      ASSERT_EQ(PostIngest(&client, body, &response), 503);
      EXPECT_NE(response.find("fsync"), std::string::npos) << response;
    }
    // The kernel may have dropped the unsynced pages, so the writer never
    // acks again: the retry is refused and /healthz reports the dead WAL.
    std::string response;
    ASSERT_EQ(PostIngest(&client, body, &response), 503);
    EXPECT_NE(response.find("dead"), std::string::npos) << response;
    int status = 0;
    ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status,
                                  &response));
    EXPECT_EQ(status, 503);
    EXPECT_NE(response.find("\"status\":\"degraded\""), std::string::npos)
        << response;
    EXPECT_EQ(server.stats().acked, 0);
    server.Stop();
  }
  // A restart reopens and re-verifies the log: healthy again, and the
  // batch that reached write(2) before the failed fsync is recovered, so
  // the client's retry is an exact no-op.
  IngestServer server(options);
  ASSERT_TRUE(server.Start());
  int status = 0;
  std::string response;
  ASSERT_TRUE(
      apps::HttpGetOnce(server.port(), "/healthz", &status, &response));
  EXPECT_EQ(status, 200) << response;
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_EQ(PostIngest(&client, body, &response), 200);
  EXPECT_NE(response.find("\"deduped\":2"), std::string::npos) << response;
  server.Stop();
}

TEST(IngestServerTest, CrashMidIngestRecoversEveryAckedRecord) {
  const std::string dir = ScratchDir("crash");
  const auto& trips = FullWorld().trips;
  ASSERT_GE(trips.size(), 2u);

  uint64_t seq = 0;
  std::vector<std::string> all_bodies;
  for (const sim::DeliveryTrip& trip : trips) {
    all_bodies.push_back(JoinLines(TripLines("crash-client", trip, &seq)));
  }
  const size_t crash_after = all_bodies.size() / 2;

  int64_t acked_before_crash = 0;
  {
    IngestServer server(BaseOptions(dir));
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (size_t i = 0; i < crash_after; ++i) {
      ASSERT_EQ(PostIngest(&client, all_bodies[i]), 200);
    }
    ASSERT_TRUE(server.WaitIdle(20.0));
    acked_before_crash = server.stats().acked;
    server.CrashForTest();  // SIGKILL semantics: no fsync, no drain.
  }

  // Restart on the same WAL dir: every acked record is back.
  IngestServer server(BaseOptions(dir));
  ASSERT_TRUE(server.Start());
  EXPECT_EQ(server.stats().recovered, acked_before_crash);

  // The client retries its last unacked batch (exact no-op if it actually
  // committed) and streams the remainder.
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  for (size_t i = crash_after; i < all_bodies.size(); ++i) {
    ASSERT_EQ(PostIngest(&client, all_bodies[i]), 200);
  }
  ASSERT_TRUE(server.WaitIdle(20.0));
  server.Stop();

  // End state must be bit-identical to a run that was never killed.
  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip& trip : trips) reference.ReplayTrip(trip);
  ExpectBitIdentical(server.ingestor(), reference);
}

TEST(IngestServerTest, SnapshotRetentionKeepsStateAndRetiresSegments) {
  const std::string dir = ScratchDir("retention");
  IngestServer::Options options = BaseOptions(dir);
  options.wal.segment_bytes = 1024;  // Frequent rotations.
  options.snapshot_every_segments = 1;

  const auto& trips = FullWorld().trips;
  uint64_t seq = 0;
  {
    IngestServer server(options);
    ASSERT_TRUE(server.Start());
    HttpClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    for (const sim::DeliveryTrip& trip : trips) {
      ASSERT_EQ(PostIngest(&client,
                           JoinLines(TripLines("ret-client", trip, &seq))),
                200);
    }
    ASSERT_TRUE(server.WaitIdle(20.0));
    server.Stop();
    // Snapshots retired covered segments: fewer segment files than
    // rotations produced.
    EXPECT_TRUE(
        std::filesystem::exists(IngestServer::SnapshotPath(dir)));
    size_t segment_files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      uint64_t index;
      if (io::ParseWalSegmentFileName(entry.path().filename().string(),
                                      &index)) {
        ++segment_files;
      }
    }
    EXPECT_LE(segment_files, 2u);
  }

  // Restart: snapshot + WAL tail reconstruct the full state.
  IngestServer server(options);
  ASSERT_TRUE(server.Start());
  server.Stop();
  StreamIngestor reference(City(), {});
  for (const sim::DeliveryTrip& trip : trips) reference.ReplayTrip(trip);
  ExpectBitIdentical(server.ingestor(), reference);
}

TEST(IngestServerTest, CorruptSnapshotFailsStartWithTypedError) {
  const std::string dir = ScratchDir("badsnap");
  {
    std::ofstream out(IngestServer::SnapshotPath(dir), std::ios::binary);
    out << "this is not an artifact";
  }
  IngestServer server(BaseOptions(dir));
  std::string error;
  EXPECT_FALSE(server.Start(&error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
}

TEST(IngestServerTest, StatsAndHealthEndpointsServe) {
  IngestServer server(BaseOptions(ScratchDir("statsz")));
  ASSERT_TRUE(server.Start());
  int status = 0;
  std::string body;
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/healthz", &status, &body));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(
      apps::HttpGetOnce(server.port(), "/ingest/stats", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"acked\""), std::string::npos) << body;
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/nope", &status, &body));
  EXPECT_EQ(status, 404);
  server.Stop();
}

}  // namespace
}  // namespace dlinf
