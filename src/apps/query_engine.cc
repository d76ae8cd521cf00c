#include "apps/query_engine.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "fault/fault.h"
#include "obs/profiler.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace apps {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// %.17g — enough digits that a double round-trips exactly, so the engine's
/// JSON and a test's locally-formatted expectation are bit-identical.
std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

const char* SourceName(DeliveryLocationService::Source source) {
  switch (source) {
    case DeliveryLocationService::Source::kAddress: return "address";
    case DeliveryLocationService::Source::kBuilding: return "building";
    case DeliveryLocationService::Source::kGeocode: return "geocode";
  }
  return "geocode";
}

struct EngineMetrics {
  obs::Counter* hits_total;
  obs::Counter* shed_total;
  obs::Counter* batch_requests;
  obs::Counter* rejected;
  obs::Histogram* latency;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return EngineMetrics{
          registry.GetCounter("service.shard.hits"),
          registry.GetCounter("service.shard.shed"),
          registry.GetCounter("service.shard.batch_requests"),
          registry.GetCounter("service.shard.rejected"),
          registry.GetHistogram("service.engine.latency_seconds")};
    }();
    return metrics;
  }
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Maps an inbound X-Request-Id to a trace id: numeric ids (decimal or
/// 0x-hex) are adopted so an upstream's id survives verbatim; any other
/// string hashes deterministically. Never returns 0 ("no trace context").
uint64_t RequestIdToTraceId(const std::string& id) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(id.c_str(), &end, 0);
  if (end == id.c_str() + id.size() && value != 0) return value;
  uint64_t hash = 0x2545f4914f6cdd1dull;
  for (const char c : id) {
    hash = SplitMix64(hash ^ static_cast<unsigned char>(c));
  }
  return hash != 0 ? hash : 1;
}

/// The generated id when a request arrives without one: 16 hex digits of a
/// splitmix64-whitened fresh trace id.
std::string GenerateRequestId(uint64_t* trace_id) {
  *trace_id = SplitMix64(obs::NextTraceId());
  if (*trace_id == 0) *trace_id = 1;
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(*trace_id));
  return buffer;
}

/// The echoed request id and its trace id: adopted from the X-Request-Id
/// header when present, generated otherwise.
std::string ExtractRequestId(const HttpRequest& request,
                             uint64_t* trace_id) {
  const std::string* header = request.FindHeader("x-request-id");
  if (header != nullptr && !header->empty()) {
    *trace_id = RequestIdToTraceId(*header);
    return *header;
  }
  return GenerateRequestId(trace_id);
}

/// Minimal strict parse of {"address_ids":[1,2,3]}. False on anything that
/// is not a flat array of base-10 integers under that key.
bool ParseBatchBody(const std::string& body, std::vector<int64_t>* ids) {
  const size_t key = body.find("\"address_ids\"");
  if (key == std::string::npos) return false;
  const size_t open = body.find('[', key);
  if (open == std::string::npos) return false;
  const size_t close = body.find(']', open);
  if (close == std::string::npos) return false;
  size_t pos = open + 1;
  while (pos < close) {
    while (pos < close &&
           (body[pos] == ' ' || body[pos] == ',' || body[pos] == '\n' ||
            body[pos] == '\t' || body[pos] == '\r')) {
      ++pos;
    }
    if (pos >= close) break;
    char* end = nullptr;
    const long long value = std::strtoll(body.c_str() + pos, &end, 10);
    if (end == body.c_str() + pos) return false;  // Not a number.
    ids->push_back(value);
    pos = static_cast<size_t>(end - body.c_str());
    while (pos < close && (body[pos] == ' ' || body[pos] == '\n' ||
                           body[pos] == '\t' || body[pos] == '\r')) {
      ++pos;
    }
    if (pos < close && body[pos] != ',') return false;
  }
  return true;
}

}  // namespace

/// Shared aggregation state of one /query_batch across its shard slices.
/// `parts` slots are disjoint per shard, so only `remaining` synchronizes.
struct QueryEngine::BatchState {
  std::vector<int64_t> ids;
  std::vector<std::string> parts;
  std::atomic<int> remaining{0};
  HttpServer::ResponseHandle handle;
  double start_s = 0.0;
  uint64_t trace_id = 0;
  std::string request_id;

  void FinishIfLast() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    std::string body = "{\"answers\":[";
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) body += ',';
      body += parts[i];
    }
    body += "]}";
    EngineMetrics::Get().latency->Observe(NowSeconds() - start_s);
    handle.RespondWithHeaders(200, "application/json", body,
                              {{"X-Request-Id", request_id}});
  }
};

std::string QueryEngine::FormatAnswerJson(
    int64_t address_id, const DeliveryLocationService::Answer& answer,
    int shard, bool shed) {
  std::string out = "{\"address_id\":" + std::to_string(address_id);
  out += ",\"x\":" + FormatDouble(answer.location.x);
  out += ",\"y\":" + FormatDouble(answer.location.y);
  out += ",\"source\":\"";
  out += SourceName(answer.source);
  out += "\",\"degraded\":";
  out += answer.degraded ? "true" : "false";
  out += ",\"shed\":";
  out += shed ? "true" : "false";
  out += ",\"shard\":" + std::to_string(shard);
  out += "}";
  return out;
}

std::unique_ptr<QueryEngine> QueryEngine::Create(const Options& options,
                                                 std::string* error) {
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    if (error != nullptr) {
      *error = "num_shards " + std::to_string(options.num_shards) +
               " is outside 1.." + std::to_string(kMaxShards);
    }
    return nullptr;
  }
  auto engine = std::unique_ptr<QueryEngine>(new QueryEngine());
  engine->options_ = options;
  engine->router_ = ShardRouter(options.num_shards);
  BundleManager::Config config = options.bundle;
  config.dir = options.bundle_dir;
  engine->manager_ = BundleManager::Create(config, error);
  if (engine->manager_ == nullptr) return nullptr;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < options.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string label = "#shard=" + std::to_string(i);
    shard->hits = registry.GetCounter("service.shard.hits" + label);
    shard->shed = registry.GetCounter("service.shard.shed" + label);
    engine->shards_.push_back(std::move(shard));
  }
  engine->RefreshAddressCount();
  QueryEngine* raw = engine.get();
  engine->admin_ = AdminRoutes(
      [raw, manager = BundleManagerHealth(engine->manager_.get())] {
        // Every shard serves the engine's one live generation.
        HealthStatus health = manager();
        health.shards.assign(
            raw->shards_.size(),
            HealthStatus::Shard{health.generation, !health.ok});
        return health;
      });

  HttpServer::Options server_options;
  server_options.port = options.port;
  server_options.idle_timeout_s = options.idle_timeout_s;
  server_options.thread_name = "qe.loop";
  if (!engine->server_.Start(
          server_options,
          [raw](const HttpRequest& request,
                HttpServer::ResponseHandle handle) {
            raw->Handle(request, std::move(handle));
          },
          error)) {
    return nullptr;
  }
  for (int i = 0; i < options.num_shards; ++i) {
    Shard* shard = engine->shards_[static_cast<size_t>(i)].get();
    shard->worker =
        std::thread(&QueryEngine::WorkerLoop, raw, shard, i);
  }
  return engine;
}

QueryEngine::~QueryEngine() { Stop(); }

void QueryEngine::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // Drain the workers first: they finish every queued job (each completion
  // posts through the still-open event loop), then the loop itself stops.
  // The reverse order would let a worker complete into a closed eventfd.
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  AdminRoutes::StopServer(&server_);
}

QueryEngine::ReloadSummary QueryEngine::PollShards(std::string* error) {
  return ReloadEachShard(&BundleManager::Poll, error);
}

QueryEngine::ReloadSummary QueryEngine::ReloadShardsNow(std::string* error) {
  return ReloadEachShard(&BundleManager::ReloadNow, error);
}

QueryEngine::ReloadSummary QueryEngine::ReloadEachShard(
    BundleManager::ReloadOutcome (BundleManager::*step)(std::string*),
    std::string* error) {
  ReloadSummary summary;
  switch ((manager_.get()->*step)(error)) {
    case BundleManager::ReloadOutcome::kSwapped:
      summary.swapped = num_shards();
      break;
    case BundleManager::ReloadOutcome::kRolledBack:
      summary.rolled_back = num_shards();
      break;
    case BundleManager::ReloadOutcome::kUnchanged:
      summary.unchanged = num_shards();
      break;
  }
  RefreshAddressCount();
  return summary;
}

void QueryEngine::RefreshAddressCount() {
  address_count_.store(
      static_cast<int64_t>(
          manager_->state()->bundle.world->addresses.size()),
      std::memory_order_release);
}

DeliveryLocationService::Answer QueryEngine::ShedAnswer(
    int64_t address_id) const {
  // The geocode tier is the terminal, infallible tier of DegradePolicy's
  // fallback chain — shedding answers from it directly without touching the
  // shard's queue or the service's tier counters.
  const std::shared_ptr<const BundleManager::ServingState> state =
      manager_->state();
  DeliveryLocationService::Answer answer;
  answer.location = state->bundle.world->address(address_id).geocoded_location;
  answer.source = DeliveryLocationService::Source::kGeocode;
  answer.degraded = true;
  return answer;
}

bool QueryEngine::AdmitOrShed(int shard_index, Job job) {
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    overloaded = static_cast<int>(shard->queue.size()) >=
                 options_.max_queue_per_shard;
  }
  if (fault::Hit("service.shard.overload")) overloaded = true;
  if (overloaded) {
    const int count =
        job.batch ? static_cast<int>(job.indices.size()) : 1;
    EngineMetrics::Get().shed_total->Add(count);
    shard->shed->Add(count);
    if (job.batch) {
      for (const size_t index : job.indices) {
        const int64_t id = job.batch->ids[index];
        job.batch->parts[index] =
            FormatAnswerJson(id, ShedAnswer(id), shard_index,
                             /*shed=*/true);
      }
      job.batch->FinishIfLast();
    } else {
      job.handle.RespondWithHeaders(
          200, "application/json",
          FormatAnswerJson(job.address_id,
                           ShedAnswer(job.address_id), shard_index,
                           /*shed=*/true),
          {{"X-Request-Id", job.request_id}});
      EngineMetrics::Get().latency->Observe(NowSeconds() - job.enqueue_s);
    }
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->queue.push_back(std::move(job));
  }
  shard->cv.notify_one();
  return false;
}

void QueryEngine::WorkerLoop(Shard* shard, int shard_index) {
  obs::prof::RegisterCurrentThread("qe.shard." + std::to_string(shard_index));
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard->mu);
      shard->cv.wait(lock,
                     [shard] { return shard->stop || !shard->queue.empty(); });
      if (shard->queue.empty()) {
        if (shard->stop) return;
        continue;
      }
      job = std::move(shard->queue.front());
      shard->queue.pop_front();
    }
    if (const auto fire = fault::Hit("service.shard.latency")) {
      fault::SleepForMs(fire->latency_ms);
    }
    // Pin the live serving state once per job: a concurrent swap cannot
    // invalidate it, and every answer in a batch slice comes from one
    // generation.
    const std::shared_ptr<const BundleManager::ServingState> state =
        manager_->state();
    // The request's trace context lives for the whole shard-side handling:
    // spans recorded below and any structured log line carry the id from
    // the request's X-Request-Id header.
    const obs::TraceScope trace_scope(
        job.batch ? job.batch->trace_id : job.trace_id);
    if (job.batch) {
      EngineMetrics::Get().hits_total->Add(
          static_cast<int64_t>(job.indices.size()));
      shard->hits->Add(static_cast<int64_t>(job.indices.size()));
      for (const size_t index : job.indices) {
        const int64_t id = job.batch->ids[index];
        job.batch->parts[index] = FormatAnswerJson(
            id, state->service->Query(id), shard_index, /*shed=*/false);
      }
      job.batch->FinishIfLast();
    } else {
      EngineMetrics::Get().hits_total->Add(1);
      shard->hits->Add(1);
      const std::string body = FormatAnswerJson(
          job.address_id, state->service->Query(job.address_id), shard_index,
          /*shed=*/false);
      EngineMetrics::Get().latency->Observe(NowSeconds() - job.enqueue_s);
      job.handle.RespondWithHeaders(200, "application/json", body,
                                    {{"X-Request-Id", job.request_id}});
    }
  }
}

void QueryEngine::HandleQuery(const HttpRequest& request,
                              HttpServer::ResponseHandle handle) {
  std::string raw;
  if (!request.QueryParam("address_id", &raw) || raw.empty()) {
    handle.Respond(400, "text/plain", "missing address_id parameter\n");
    return;
  }
  char* end = nullptr;
  const int64_t id = std::strtoll(raw.c_str(), &end, 10);
  if (end != raw.c_str() + raw.size()) {
    handle.Respond(400, "text/plain", "malformed address_id\n");
    return;
  }
  if (id < 0 || id >= address_count_.load(std::memory_order_acquire)) {
    EngineMetrics::Get().rejected->Add(1);
    handle.Respond(404, "application/json",
                   "{\"error\":\"unknown address_id\"}");
    return;
  }
  Job job;
  job.address_id = id;
  job.handle = handle;
  job.enqueue_s = NowSeconds();
  job.request_id = ExtractRequestId(request, &job.trace_id);
  AdmitOrShed(router_.ShardOf(id), std::move(job));
}

void QueryEngine::HandleQueryBatch(const HttpRequest& request,
                                   HttpServer::ResponseHandle handle) {
  if (request.method != "POST") {
    handle.Respond(405, "text/plain", "POST required\n");
    return;
  }
  std::vector<int64_t> ids;
  if (!ParseBatchBody(request.body, &ids)) {
    handle.Respond(400, "text/plain",
                   "body must be {\"address_ids\":[...]}\n");
    return;
  }
  const int64_t count = address_count_.load(std::memory_order_acquire);
  for (const int64_t id : ids) {
    if (id < 0 || id >= count) {
      EngineMetrics::Get().rejected->Add(1);
      handle.Respond(404, "application/json",
                     "{\"error\":\"unknown address_id\"}");
      return;
    }
  }
  EngineMetrics::Get().batch_requests->Add(1);
  if (ids.empty()) {
    handle.Respond(200, "application/json", "{\"answers\":[]}");
    return;
  }
  auto batch = std::make_shared<BatchState>();
  batch->ids = std::move(ids);
  batch->parts.resize(batch->ids.size());
  batch->handle = handle;
  batch->start_s = NowSeconds();
  batch->request_id = ExtractRequestId(request, &batch->trace_id);

  // Slice by shard; `remaining` must be final before any slice can finish.
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t i = 0; i < batch->ids.size(); ++i) {
    by_shard[static_cast<size_t>(router_.ShardOf(batch->ids[i]))].push_back(
        i);
  }
  int slices = 0;
  for (const auto& indices : by_shard) {
    if (!indices.empty()) ++slices;
  }
  batch->remaining.store(slices, std::memory_order_release);
  for (size_t shard = 0; shard < by_shard.size(); ++shard) {
    if (by_shard[shard].empty()) continue;
    Job job;
    job.batch = batch;
    job.indices = std::move(by_shard[shard]);
    job.enqueue_s = batch->start_s;
    AdmitOrShed(static_cast<int>(shard), std::move(job));
  }
}

void QueryEngine::Handle(const HttpRequest& request,
                         HttpServer::ResponseHandle handle) {
  if (request.path == "/query") {
    HandleQuery(request, std::move(handle));
  } else if (request.path == "/query_batch") {
    HandleQueryBatch(request, std::move(handle));
  } else if (request.path == "/inventory") {
    handle.Respond(
        200, "application/json",
        "{\"count\":" +
            std::to_string(
                address_count_.load(std::memory_order_acquire)) +
            ",\"shards\":" + std::to_string(num_shards()) + "}");
  } else if (!admin_.Handle(request, handle)) {
    handle.Respond(404, "text/plain", "not found\n");
  }
}

}  // namespace apps
}  // namespace dlinf
