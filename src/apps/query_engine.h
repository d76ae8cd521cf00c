#ifndef DLINF_APPS_QUERY_ENGINE_H_
#define DLINF_APPS_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/bundle_manager.h"
#include "apps/http_conn.h"
#include "apps/location_service.h"
#include "apps/shard_router.h"
#include "obs/metrics.h"

/// \file
/// The sharded high-QPS query front end (DESIGN.md §11).
///
/// One epoll event loop (`HttpServer`) accepts keep-alive/pipelined HTTP and
/// routes `/query` + `/query_batch` by consistent hash (`ShardRouter`) to N
/// shard worker threads. The engine owns one `BundleManager` over the bundle
/// directory and every shard worker answers from its live `ServingState`, so
/// a push is staged, validated and swapped (or rolled back) once, and never
/// blocks a shard's queries.
///
/// **Request correlation**: `/query` and `/query_batch` accept an
/// `X-Request-Id` header (any string; numeric values are adopted as the
/// trace id directly, other strings are hashed, and a fresh splitmix64 id
/// is generated when the header is absent). The id is echoed back in the
/// response's `X-Request-Id` header and installed as the worker's
/// `TraceScope`, so a slow request joins across /tracez spans, structured
/// log `trace_id` fields and a captured CPU profile.
///
/// **Shedding contract**: admission control runs on the loop thread. When a
/// shard's queue is at capacity (or the `service.shard.overload` fault point
/// fires), the request is *not* dropped and the connection is *not* closed —
/// the loop thread answers inline with the geocode-tier degraded answer, the
/// same lowest tier `DegradePolicy` falls back to when upper tiers fail.
/// Every query is always answered; shedding only changes which tier answers
/// and is visible in `"shed": true` and the `service.shard.shed` counters.
///
/// `/inventory` reports the address count and shard count. Every other path
/// goes to the shared admin routes (admin_routes.h: /metrics, /healthz,
/// /varz, /tracez, /profilez) on the same event loop, so a stalled or slow
/// client can never delay a health scrape (the slow-loris fix; see
/// tests/query_engine_test.cc). /healthz lists every shard's generation (all
/// shards serve the one live generation) and is 503 while the engine runs on
/// a rolled-back generation.

namespace dlinf {
namespace apps {

/// Sharded query engine: event loop + N shard workers over one reloadable
/// bundle.
class QueryEngine {
 public:
  struct Options {
    std::string bundle_dir;
    int num_shards = 4;
    int port = 0;  ///< 0 picks an ephemeral port.
    /// Admission bound: queries queued per shard beyond which new arrivals
    /// are shed to the inline degraded tier.
    int max_queue_per_shard = 512;
    double idle_timeout_s = 30.0;
    /// BundleManager tuning (`dir` is overridden by bundle_dir).
    BundleManager::Config bundle;
  };

  /// Outcome of one reload, counted per shard: a clean push reports
  /// `swapped == num_shards()`.
  struct ReloadSummary {
    int swapped = 0;
    int rolled_back = 0;
    int unchanged = 0;
  };

  /// Largest `Options::num_shards`: every shard is a worker thread.
  static constexpr int kMaxShards = 256;

  /// Boots one BundleManager from `options.bundle_dir` (the bundle is
  /// staged once, whatever the shard count), builds the shard ring, binds
  /// the port and starts serving. nullptr (reason in `error`) when
  /// `num_shards` is outside 1..kMaxShards (checked before any thread
  /// starts), the bundle fails to load or the socket setup fails.
  static std::unique_ptr<QueryEngine> Create(const Options& options,
                                             std::string* error = nullptr);

  ~QueryEngine();
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Stops accepting, drains the shard queues, joins every thread.
  void Stop();

  int port() const { return server_.port(); }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return router_; }

  /// Runs BundleManager::Poll once for all shards (control thread only).
  ReloadSummary PollShards(std::string* error = nullptr);

  /// Runs BundleManager::ReloadNow once for all shards (control thread
  /// only).
  ReloadSummary ReloadShardsNow(std::string* error = nullptr);

  /// True while the shards serve an older generation than the last push
  /// (the push rolled back and no later push has swapped).
  bool AnyShardDegraded() const { return manager_->reload_degraded(); }

  /// The reload manager every shard serves from (tests and the serve
  /// loop).
  BundleManager* shard_manager(int /*shard*/) { return manager_.get(); }

  /// The exact JSON body `/query` serves for `address_id` answered by
  /// `shard`. Exposed so tests can derive the expected bytes from a direct
  /// `DeliveryLocationService::Query` answer and assert bit-identical
  /// engine output (doubles are %.17g — lossless round-trip).
  static std::string FormatAnswerJson(
      int64_t address_id, const DeliveryLocationService::Answer& answer,
      int shard, bool shed);

 private:
  /// One enqueued unit of work: either a single /query or one shard's slice
  /// of a /query_batch.
  struct BatchState;
  struct Job {
    int64_t address_id = -1;
    HttpServer::ResponseHandle handle;  ///< Single-query only.
    double enqueue_s = 0.0;
    uint64_t trace_id = 0;       ///< From X-Request-Id (or generated).
    std::string request_id;      ///< Echoed back verbatim in X-Request-Id.
    std::shared_ptr<BatchState> batch;  ///< Batch slice only.
    std::vector<size_t> indices;        ///< Batch positions for this shard.
  };

  struct Shard {
    std::thread worker;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Job> queue;
    bool stop = false;
    obs::Counter* hits = nullptr;  ///< service.shard.hits#shard=i
    obs::Counter* shed = nullptr;  ///< service.shard.shed#shard=i
  };

  QueryEngine() = default;

  void Handle(const HttpRequest& request, HttpServer::ResponseHandle handle);
  void HandleQuery(const HttpRequest& request,
                   HttpServer::ResponseHandle handle);
  void HandleQueryBatch(const HttpRequest& request,
                        HttpServer::ResponseHandle handle);
  void WorkerLoop(Shard* shard, int shard_index);

  /// The inline geocode-tier degraded answer used when shedding.
  DeliveryLocationService::Answer ShedAnswer(int64_t address_id) const;

  /// True when the request was shed (handled inline); false when enqueued.
  bool AdmitOrShed(int shard_index, Job job);

  /// Runs `step` (Poll or ReloadNow) once and counts its outcome for
  /// every shard.
  ReloadSummary ReloadEachShard(
      BundleManager::ReloadOutcome (BundleManager::*step)(std::string*),
      std::string* error);

  /// Re-reads the admission bound from the live bundle.
  void RefreshAddressCount();

  Options options_;
  ShardRouter router_{1};
  std::unique_ptr<BundleManager> manager_;
  std::vector<std::unique_ptr<Shard>> shards_;
  AdminRoutes admin_;
  HttpServer server_;
  std::atomic<int64_t> address_count_{0};  ///< Bounds check on admission.
  std::atomic<bool> stopped_{false};
};

}  // namespace apps
}  // namespace dlinf

#endif  // DLINF_APPS_QUERY_ENGINE_H_
