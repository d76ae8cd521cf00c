// dlinf_cli — command-line driver for the DLInfMA pipeline.
//
//   dlinf_cli generate --preset dowbj|subbj [--days N] [--seed S] --out DIR
//       Synthesize a dataset and save it as CSV (see sim/world_io.h; the
//       same files are the interchange format for real waybill/GPS data).
//
//   dlinf_cli stats --world DIR
//       Print dataset statistics (Table I style).
//
//   dlinf_cli train --world DIR --bundle DIR [--model FILE] [--quick]
//              [--ckpt FILE [--ckpt-every N] [--resume]]
//       The offline pipeline: candidate generation + feature extraction,
//       train LocMatcher on the train/val splits, report test metrics, then
//       persist the full artifact bundle (world, candidate pool + retrieval
//       indexes, feature tensors, model weights; see io/bundle.h) so that
//       serve/infer warm-start without retraining. --model additionally
//       writes a bare nn checkpoint (legacy format). --ckpt writes a
//       crash-safe CKPT artifact (io/checkpoint.h) every N epochs (default
//       5); --resume restores it first, so a killed run finishes
//       bit-identical to an uninterrupted one.
//
//   dlinf_cli serve --bundle DIR [--shards N] [--port P] [--serve-seconds S]
//              [--poll-every K] [--trace-sample R]
//       The online service (DESIGN.md §11): warm-start the bundle once —
//       milliseconds, no retraining — and serve it from N shard workers
//       (default: QueryEngine::Options) behind one epoll event loop on
//       port P (default 0 = ephemeral; the bound port is printed). It
//       serves /query, /query_batch and /inventory plus the shared admin
//       routes /metrics, /healthz, /varz, /tracez and /profilez
//       (DESIGN.md §10) until S seconds elapse (default 0 = until
//       SIGINT/SIGTERM). Every K seconds (default 5) the engine polls the
//       bundle directory: a fresh push is staged and shadow-validated once
//       and every shard swaps to it with zero downtime, and a bad push
//       rolls back (and /healthz turns 503 until the next clean swap). Per-request traces for /tracez are sampled at rate R
//       (default 0.01). Drive it with tools/load_gen.
//
//   dlinf_cli infer (--bundle DIR | --world DIR --model FILE) --out FILE.csv
//       Write the inferred delivery location of every delivered address as
//       CSV (address_id,x,y). With --bundle the whole pipeline state is
//       warm-started from artifacts; the legacy --world/--model path
//       re-mines candidates and only loads the checkpoint.
//
//   dlinf_cli stream --listen PORT --wal-dir DIR [--city DIR]
//              [--serve-seconds S] [--fsync-every N] [--fsync-interval S]
//              [--segment-bytes B] [--snapshot-every K] [--max-queue Q]
//              [--publish-dir DIR [--retrain-every N] [--quick] [--epochs E]
//               [--ckpt FILE [--ckpt-every K]]]
//       Streaming ingestion and the online learning loop (DESIGN.md §13,
//       §14): serve POST /ingest on PORT (0 = ephemeral) and stream what
//       producers send, one GPS fix at a time, through the incremental
//       stay-point detector and candidate index (src/stream). Every
//       accepted record is WAL-committed under --wal-dir before it is
//       acked; on startup the WAL (plus the newest state snapshot, written
//       every K segment rotations) is replayed, so a kill -9'd listener
//       resumes with zero acked-record loss. Drive it with `load_gen
//       --ingest` (`--world DIR` replays a recorded world's trips). --city
//       seeds the static world (station, buildings, addresses) from a world
//       dir; the default is the built-in synthetic city. With
//       --publish-dir, an online retrain round runs each time another N
//       trips have been ingested (default N=0: only at the end) over a copy
//       of the ingested state, warm-started from the previous round's
//       weights while ingest keeps acking, and publishes a fresh artifact
//       bundle into --publish-dir with the manifest-last protocol `serve`
//       hot-reloads. One more round runs after the stream stops, unless
//       the last one saw every trip. --quick caps rounds at 20 epochs
//       (--epochs overrides exactly); --ckpt writes a crash-safe CKPT
//       artifact every K epochs during each round (`train --resume`
//       semantics). Serves until S elapses (0 = until SIGINT/SIGTERM), then
//       drains and prints the final counters.
//
//   dlinf_cli evaluate --world DIR [--quick]
//       Compare DLInfMA against the heuristic baselines on the test split.
//
//   Numeric flag values are parsed strictly: a value with trailing
//   characters (--shards 4x) or outside the flag's range (--shards 0,
//   --max-queue -1) is a one-line error and exit 2.
//
//   Any command additionally accepts --metrics [FILE]: after the command
//   finishes, dump the process metrics registry (pipeline stage timers,
//   service tier hits, thread-pool stats; see DESIGN.md §6) as JSON to FILE,
//   or to stdout when no FILE is given. Two more global telemetry flags
//   (DESIGN.md §10):
//     --trace-out FILE   record every span/instant event (sampling rate 1)
//                        for the whole command and write Chrome trace-event
//                        JSON to FILE on exit (open in Perfetto).
//     --log-json [FILE]  emit structured JSON-lines telemetry (per-epoch
//                        training stats, reload transitions, degradation
//                        warnings) to FILE, or stderr when no FILE given.
//     --profile-out FILE arm the sampling CPU profiler (DESIGN.md §15) for
//                        the whole command and write the collapsed-stack
//                        ("folded") profile to FILE on exit — feed it to
//                        flamegraph.pl. FILE ending in .json writes the
//                        Chrome-trace merge (samples + spans) instead.
//     --profile-hz H     sampling rate for --profile-out (default 99).

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <type_traits>

#include "apps/query_engine.h"
#include "baselines/evaluation.h"
#include "baselines/simple_baselines.h"
#include "common/csv.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/logging.h"
#include "dlinfma/dlinfma_method.h"
#include "dlinfma/inferrer.h"
#include "io/bundle.h"
#include "io/checkpoint.h"
#include "io/file.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/structured_log.h"
#include "obs/trace_log.h"
#include "sim/generator.h"
#include "sim/world_io.h"
#include "sim/config.h"
#include "stream/ingest_server.h"
#include "stream/online_trainer.h"
#include "stream/stream_pipeline.h"

namespace {

using namespace dlinf;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";
    }
  }
  return flags;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dlinf_cli "
               "<generate|stats|train|serve|infer|stream|evaluate> "
               "[--flags]\n(see the header comment of tools/dlinf_cli.cc)\n");
  return 2;
}

/// A numeric flag whose value does not parse; main() reports it and exits 2.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value of --`key` parsed strictly as a T ("4x" is an error, never 4),
/// or `fallback` when the flag is absent.
template <typename T>
T NumericFlag(const std::map<std::string, std::string>& flags,
              const std::string& key, T fallback) {
  auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  T value{};
  if (!ParseNumber(it->second, &value)) {
    throw FlagError("--" + key + " wants " +
                    (std::is_integral_v<T> ? "an integer" : "a number") +
                    ", got '" + it->second + "'");
  }
  return value;
}

int IntFlag(const std::map<std::string, std::string>& flags,
            const std::string& key, int fallback) {
  return NumericFlag<int>(flags, key, fallback);
}

/// The integer flag --`key` (or `fallback`) checked against [lo, hi]: a
/// value out of range is a FlagError, never clamped or wrapped.
int64_t RangedFlag(const std::map<std::string, std::string>& flags,
                   const std::string& key, int64_t fallback, int64_t lo,
                   int64_t hi = std::numeric_limits<int64_t>::max()) {
  const int64_t value = NumericFlag<int64_t>(flags, key, fallback);
  if (value < lo || value > hi) {
    throw FlagError("--" + key + " wants an integer " +
                    (hi == std::numeric_limits<int64_t>::max()
                         ? ">= " + std::to_string(lo)
                         : "in " + std::to_string(lo) + ".." +
                               std::to_string(hi)) +
                    ", got " + std::to_string(value));
  }
  return value;
}

double DoubleFlag(const std::map<std::string, std::string>& flags,
                  const std::string& key, double fallback) {
  return NumericFlag<double>(flags, key, fallback);
}

/// Typed user-input validation: a path handed to --world/--bundle/--ckpt
/// must exist (and be the right kind of entry) before any loader touches
/// it, so a typo'd path is a clean one-line error and exit 1 — never a
/// CHECK abort or a cascade of decode errors.
bool PathUsable(const char* what, const std::string& path, bool want_dir) {
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(status)) {
    std::fprintf(stderr, "error: %s path %s does not exist or is unreadable\n",
                 what, path.c_str());
    return false;
  }
  if (want_dir && !std::filesystem::is_directory(status)) {
    std::fprintf(stderr, "error: %s path %s is not a directory\n", what,
                 path.c_str());
    return false;
  }
  if (!want_dir && std::filesystem::is_directory(status)) {
    std::fprintf(stderr, "error: %s path %s is a directory, expected a file\n",
                 what, path.c_str());
    return false;
  }
  return true;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  sim::SimConfig config = sim::SynDowBJConfig();
  auto preset = flags.find("preset");
  if (preset != flags.end() && preset->second == "subbj") {
    config = sim::SynSubBJConfig();
  }
  config.num_days = IntFlag(flags, "days", config.num_days);
  config.seed = NumericFlag<uint64_t>(flags, "seed", config.seed);
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();
  const sim::World world = sim::GenerateWorld(config);
  if (!sim::SaveWorldCsv(world, out->second)) {
    std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu addresses, %zu trips, %lld waybills\n",
              out->second.c_str(), world.addresses.size(), world.trips.size(),
              static_cast<long long>(world.TotalWaybills()));
  return 0;
}

std::optional<sim::World> LoadWorldFlag(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("world");
  if (it == flags.end()) return std::nullopt;
  if (!PathUsable("--world", it->second, /*want_dir=*/true)) {
    return std::nullopt;
  }
  std::optional<sim::World> world = sim::LoadWorldCsv(it->second);
  if (!world) {
    std::fprintf(stderr, "error: cannot load world from %s\n",
                 it->second.c_str());
  }
  return world;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  std::printf("dataset %s\n", world->name.c_str());
  std::printf("  communities        %zu\n", world->communities.size());
  std::printf("  buildings          %zu\n", world->buildings.size());
  std::printf("  addresses          %zu (delivered %zu)\n",
              world->addresses.size(), world->DeliveredAddressIds().size());
  std::printf("  trips              %zu\n", world->trips.size());
  std::printf("  waybills           %lld\n",
              static_cast<long long>(world->TotalWaybills()));
  std::printf("  GPS points         %lld\n",
              static_cast<long long>(world->TotalTrajectoryPoints()));
  std::printf("  stay points        %zu\n", data.gen->stay_points().size());
  std::printf("  candidates         %zu\n", data.gen->candidates().size());
  std::printf("  split train/val/test  %zu/%zu/%zu\n", data.train_ids.size(),
              data.val_ids.size(), data.test_ids.size());
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& flags) {
  auto bundle_dir = flags.find("bundle");
  auto model_path = flags.find("model");
  if (flags.count("world") == 0 ||
      (bundle_dir == flags.end() && model_path == flags.end())) {
    return Usage();
  }
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;

  // Resolve checkpointing flags before any heavy lifting: --resume needs a
  // checkpoint path (its own value, or the one from --ckpt) that names a
  // readable CKPT artifact.
  auto ckpt = flags.find("ckpt");
  std::string resume_path;
  if (auto it = flags.find("resume"); it != flags.end()) {
    resume_path = it->second != "true" ? it->second
                  : ckpt != flags.end() ? ckpt->second
                                        : std::string();
    if (resume_path.empty()) {
      std::fprintf(stderr, "error: --resume needs a checkpoint (pass --ckpt "
                           "FILE or --resume FILE)\n");
      return 1;
    }
    if (!PathUsable("--resume", resume_path, /*want_dir=*/false)) return 1;
  }
  std::optional<dlinfma::TrainCheckpoint> resume_state;
  if (!resume_path.empty()) {
    std::string error;
    resume_state = io::LoadCheckpointArtifact(resume_path, &error);
    if (!resume_state) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n",
                   resume_path.c_str(), error.c_str());
      return 1;
    }
  }

  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});

  dlinfma::TrainConfig train_config;
  if (flags.count("quick") > 0) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  if (ckpt != flags.end()) {
    train_config.checkpoint_every_epochs =
        std::max(1, IntFlag(flags, "ckpt-every", 5));
    const std::string ckpt_path = ckpt->second;
    train_config.checkpoint_sink =
        [ckpt_path](const dlinfma::TrainCheckpoint& state) {
          return io::SaveCheckpointArtifact(state, ckpt_path);
        };
  }
  if (resume_state) {
    // The trainer CHECKs these invariants; user input gets a typed error.
    if (resume_state->seed != train_config.seed) {
      std::fprintf(stderr,
                   "error: checkpoint %s was written with seed %llu, this "
                   "run uses seed %llu\n",
                   resume_path.c_str(),
                   static_cast<unsigned long long>(resume_state->seed),
                   static_cast<unsigned long long>(train_config.seed));
      return 1;
    }
    if (resume_state->sample_order.size() != samples.train.size()) {
      std::fprintf(stderr,
                   "error: checkpoint %s was written for %zu training "
                   "samples, this dataset has %zu\n",
                   resume_path.c_str(), resume_state->sample_order.size(),
                   samples.train.size());
      return 1;
    }
    train_config.resume = &*resume_state;
    std::printf("resuming from %s at epoch %d\n", resume_path.c_str(),
                resume_state->next_epoch);
  }

  dlinfma::DlInfMaMethod method("DLInfMA", {}, train_config);
  baselines::MethodResult result = baselines::RunMethod(&method, data, samples);
  std::printf("trained %d epochs in %.1fs; test %s\n",
              method.train_result().epochs_run, result.fit_seconds,
              result.metrics.ToString().c_str());
  if (ckpt != flags.end()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    std::printf(
        "checkpoints: %s every %d epochs (%lld written, %lld failed)\n",
        ckpt->second.c_str(), train_config.checkpoint_every_epochs,
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.writes")->value()),
        static_cast<long long>(
            registry.GetCounter("train.checkpoint.failures")->value()));
  }

  if (bundle_dir != flags.end()) {
    std::string error;
    if (!io::SaveBundle(bundle_dir->second, *world, data, samples, method,
                        &error)) {
      std::fprintf(stderr, "error: cannot save bundle: %s\n", error.c_str());
      return 1;
    }
    std::printf("artifact bundle: %s\n", bundle_dir->second.c_str());
  }
  if (model_path != flags.end()) {
    if (!method.SaveModel(model_path->second)) {
      std::fprintf(stderr, "error: cannot save model to %s\n",
                   model_path->second.c_str());
      return 1;
    }
    std::printf("checkpoint: %s\n", model_path->second.c_str());
  }
  return 0;
}

/// Loads the artifact bundle named by --bundle, reporting the warm-start
/// time. Returns nullopt (after printing the reason) on failure.
std::optional<io::WarmBundle> LoadBundleFlag(
    const std::map<std::string, std::string>& flags) {
  auto it = flags.find("bundle");
  if (it == flags.end()) return std::nullopt;
  if (!PathUsable("--bundle", it->second, /*want_dir=*/true)) {
    return std::nullopt;
  }
  Stopwatch watch;
  std::string error;
  std::optional<io::WarmBundle> bundle = io::LoadBundle(it->second, &error);
  if (!bundle) {
    std::fprintf(stderr, "error: cannot load bundle: %s\n", error.c_str());
    return std::nullopt;
  }
  std::printf(
      "warm-start: bundle %s loaded in %.1f ms (%zu addresses, %zu "
      "candidates, %lld model parameters; no retraining)\n",
      it->second.c_str(), watch.ElapsedSeconds() * 1e3,
      bundle->world->addresses.size(), bundle->data.gen->candidates().size(),
      static_cast<long long>(bundle->method->model()->NumParameters()));
  return bundle;
}

bool WriteLocationsCsv(const std::string& path,
                       const std::vector<dlinfma::AddressSample>& samples,
                       const std::vector<Point>& locations) {
  CsvTable table;
  table.header = {"address_id", "x", "y"};
  for (size_t i = 0; i < samples.size(); ++i) {
    table.rows.push_back({std::to_string(samples[i].address_id),
                          StrPrintf("%.2f", locations[i].x),
                          StrPrintf("%.2f", locations[i].y)});
  }
  return WriteCsv(path, table);
}

int CmdInfer(const std::map<std::string, std::string>& flags) {
  auto out = flags.find("out");
  if (out == flags.end()) return Usage();

  if (flags.count("bundle") > 0) {
    // Warm path: every pipeline artifact comes from the bundle.
    std::optional<io::WarmBundle> bundle = LoadBundleFlag(flags);
    if (!bundle) return 1;
    const std::vector<dlinfma::AddressSample> samples =
        io::AllSamples(bundle->samples);
    const std::vector<Point> locations =
        bundle->method->InferAll(bundle->data, samples);
    if (!WriteLocationsCsv(out->second, samples, locations)) {
      std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
      return 1;
    }
    std::printf("inferred %zu delivery locations -> %s\n", samples.size(),
                out->second.c_str());
    return 0;
  }

  // Legacy path: CSV world + bare checkpoint; re-mines candidates.
  const auto world = LoadWorldFlag(flags);
  auto model_path = flags.find("model");
  if (!world || model_path == flags.end()) return Usage();
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  dlinfma::FeatureExtractor extractor(&*world, data.gen.get());
  const std::vector<dlinfma::AddressSample> samples =
      extractor.ExtractAll(world->DeliveredAddressIds(), /*with_labels=*/true);

  dlinfma::DlInfMaMethod method;
  if (!method.LoadModel(model_path->second)) {
    std::fprintf(stderr, "error: cannot load model from %s\n",
                 model_path->second.c_str());
    return 1;
  }
  const std::vector<Point> locations = method.InferAll(data, samples);
  if (!WriteLocationsCsv(out->second, samples, locations)) {
    std::fprintf(stderr, "error: cannot write %s\n", out->second.c_str());
    return 1;
  }
  std::printf("inferred %zu delivery locations -> %s\n", samples.size(),
              out->second.c_str());
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

/// Blocks until `seconds` elapse (0 = forever) or SIGINT/SIGTERM arrives,
/// calling `tick` with the elapsed seconds every 50 ms. Returns the elapsed
/// seconds.
double ServeUntilStopped(double seconds,
                         const std::function<void(double)>& tick = nullptr) {
  g_stop_requested = 0;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  Stopwatch watch;
  while (g_stop_requested == 0 &&
         (seconds <= 0.0 || watch.ElapsedSeconds() < seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (tick) tick(watch.ElapsedSeconds());
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  return watch.ElapsedSeconds();
}

/// `serve`: the sharded HTTP query engine (DESIGN.md §11). Boots a
/// QueryEngine over the bundle, prints the bound port, then serves until
/// --serve-seconds elapses (0 = until SIGINT/SIGTERM), polling the bundle
/// directory for pushes every --poll-every seconds.
int CmdServe(const std::map<std::string, std::string>& flags) {
  if (flags.count("bundle") == 0) return Usage();
  apps::QueryEngine::Options options;
  options.bundle_dir = flags.at("bundle");
  options.num_shards = static_cast<int>(RangedFlag(
      flags, "shards", options.num_shards, 1, apps::QueryEngine::kMaxShards));
  options.port = IntFlag(flags, "port", options.port);
  const double serve_seconds = DoubleFlag(flags, "serve-seconds", 0.0);
  const double poll_every_s = DoubleFlag(flags, "poll-every", 5.0);
  const double trace_sample = DoubleFlag(flags, "trace-sample", 0.01);
  if (!PathUsable("--bundle", options.bundle_dir, /*want_dir=*/true)) {
    return 1;
  }
  Stopwatch watch;
  std::string error;
  std::unique_ptr<apps::QueryEngine> engine =
      apps::QueryEngine::Create(options, &error);
  if (engine == nullptr) {
    std::fprintf(stderr, "error: cannot start query engine: %s\n",
                 error.c_str());
    return 1;
  }
  // Arm per-request trace sampling for /tracez unless --trace-out already
  // armed a record-everything session in main().
  if (!obs::TracingArmed()) obs::TraceLog::Global().Start(trace_sample);
  std::printf(
      "query engine up in %.2f s: %d shards on http://127.0.0.1:%d "
      "(/query /query_batch /inventory /metrics /healthz /varz /tracez "
      "/profilez)\n",
      watch.ElapsedSeconds(), engine->num_shards(), engine->port());
  std::fflush(stdout);

  double last_poll = 0.0;
  ServeUntilStopped(serve_seconds, [&](double elapsed) {
    if (elapsed - last_poll < poll_every_s) return;
    last_poll = elapsed;
    const apps::QueryEngine::ReloadSummary summary =
        engine->PollShards(&error);
    if (summary.swapped > 0 || summary.rolled_back > 0) {
      std::printf("hot-reload: %d shard(s) swapped, %d rolled back%s%s\n",
                  summary.swapped, summary.rolled_back,
                  summary.rolled_back > 0 ? ": " : "",
                  summary.rolled_back > 0 ? error.c_str() : "");
      std::fflush(stdout);
    }
  });
  engine->Stop();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  int64_t hits = 0;
  int64_t shed = 0;
  for (int shard = 0; shard < engine->num_shards(); ++shard) {
    hits += registry
                .GetCounter("service.shard.hits#shard=" +
                            std::to_string(shard))
                ->value();
    shed += registry
                .GetCounter("service.shard.shed#shard=" +
                            std::to_string(shard))
                ->value();
  }
  std::printf("query engine done: %lld shard hits, %lld shed\n",
              static_cast<long long>(hits), static_cast<long long>(shed));
  return 0;
}

/// `stream`: durable network ingestion feeding the online learning loop
/// (see the header comment).
int CmdStream(const std::map<std::string, std::string>& flags) {
  if (flags.count("listen") == 0) return Usage();
  if (flags.count("wal-dir") == 0 || flags.at("wal-dir") == "true") {
    std::fprintf(stderr, "error: --listen requires --wal-dir DIR\n");
    return 2;
  }
  stream::IngestServer::Options options;
  options.port = static_cast<int>(RangedFlag(flags, "listen", 0, 0, 65535));
  options.wal.dir = flags.at("wal-dir");
  options.wal.fsync_every_n = RangedFlag(flags, "fsync-every", 0, 0);
  options.wal.fsync_interval_s = DoubleFlag(flags, "fsync-interval", 0.0);
  options.wal.segment_bytes = RangedFlag(flags, "segment-bytes", 4 << 20, 0);
  options.snapshot_every_segments = RangedFlag(flags, "snapshot-every", 0, 0);
  options.max_queue_records = RangedFlag(flags, "max-queue", 4096, 0);

  const auto publish_dir = flags.find("publish-dir");
  const int64_t retrain_every = RangedFlag(flags, "retrain-every", 0, 0);
  stream::OnlineTrainer::Options trainer_options;
  if (flags.count("quick") > 0) {
    trainer_options.train.max_epochs = 20;
    trainer_options.train.early_stop_patience = 5;
  }
  trainer_options.train.max_epochs = static_cast<int>(RangedFlag(
      flags, "epochs", trainer_options.train.max_epochs, 0, 1 << 20));
  if (auto ckpt = flags.find("ckpt"); ckpt != flags.end()) {
    trainer_options.checkpoint_path = ckpt->second;
    trainer_options.checkpoint_every_epochs = static_cast<int>(
        std::max<int64_t>(1, RangedFlag(flags, "ckpt-every", 5, 0, 1 << 20)));
  }
  if (publish_dir != flags.end()) {
    trainer_options.publish_dir = publish_dir->second;
  }
  for (const char* key :
       {"retrain-every", "quick", "epochs", "ckpt", "ckpt-every"}) {
    if (flags.count(key) > 0 && publish_dir == flags.end()) {
      std::fprintf(stderr, "error: --%s needs --publish-dir DIR\n", key);
      return 2;
    }
  }

  if (auto city = flags.find("city"); city != flags.end()) {
    std::optional<sim::World> world = sim::LoadWorldCsv(city->second);
    if (!world) {
      std::fprintf(stderr, "error: cannot load city world from %s\n",
                   city->second.c_str());
      return 1;
    }
    world->trips.clear();  // Trips arrive over the wire, not from disk.
    options.city = std::move(*world);
  } else {
    sim::SimConfig config = sim::SynDowBJConfig();
    config.num_days = 1;
    options.city = sim::GenerateWorld(config);
    options.city.trips.clear();
  }

  stream::IngestServer server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "error: cannot start ingest server: %s\n",
                 error.c_str());
    return 1;
  }
  const stream::IngestServer::Stats boot = server.stats();
  std::printf("ingest: http://127.0.0.1:%d/ingest (wal %s)\n", server.port(),
              flags.at("wal-dir").c_str());
  std::printf(
      "ingest: recovered %lld records (%lld trips) from snapshot + wal\n",
      static_cast<long long>(boot.recovered),
      static_cast<long long>(boot.trips));
  std::fflush(stdout);

  // One retrain round over a copy of the ingested state; the listener keeps
  // acking while it trains.
  stream::OnlineTrainer trainer(trainer_options);
  int64_t last_round_trips = 0;
  auto retrain = [&] {
    stream::IngestServer::State state = server.CopyState();
    last_round_trips = static_cast<int64_t>(state.world.trips.size());
    const stream::OnlineTrainer::RoundResult result =
        trainer.Retrain(state.world, std::move(state.generation));
    if (!result.trained) {
      std::printf("round %d skipped after %lld trips: %s\n", result.round,
                  static_cast<long long>(last_round_trips),
                  result.skip_reason.c_str());
    } else {
      std::printf(
          "round %d: %lld trips, %zu/%zu train/val samples, %d epochs, "
          "val loss %.4f\n",
          result.round, static_cast<long long>(last_round_trips),
          result.train_samples, result.val_samples, result.train.epochs_run,
          result.train.best_val_loss);
      if (result.published) {
        std::printf("published bundle -> %s\n", publish_dir->second.c_str());
      } else {
        std::fprintf(stderr, "error: publish failed: %s\n",
                     result.publish_error.c_str());
      }
    }
    std::fflush(stdout);
  };

  const bool learning = publish_dir != flags.end();
  int64_t next_round_at = retrain_every;
  const double served_s = ServeUntilStopped(
      DoubleFlag(flags, "serve-seconds", 0.0), [&](double) {
        if (!learning || retrain_every == 0 ||
            server.stats().trips < next_round_at) {
          return;
        }
        retrain();
        next_round_at = (last_round_trips / retrain_every + 1) * retrain_every;
      });
  server.Stop();  // Drains the queue and fsyncs the WAL.

  const stream::IngestServer::Stats stats = server.stats();
  // End-of-stream round, unless the last round already saw every trip.
  if (learning && stats.trips > 0 && stats.trips != last_round_trips) {
    retrain();
  }
  std::printf(
      "ingest done in %.1f s: received=%lld acked=%lld deduped=%lld "
      "shed=%lld rejected=%lld recovered=%lld trips=%lld\n",
      served_s, static_cast<long long>(stats.received),
      static_cast<long long>(stats.acked),
      static_cast<long long>(stats.deduped),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.recovered),
      static_cast<long long>(stats.trips));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  auto counter = [&registry](const char* name) {
    return static_cast<long long>(registry.GetCounter(name)->value());
  };
  std::printf(
      "stream done in %.1f s: %lld points (%lld dropped), %lld trips, %lld "
      "stay points, %zu clusters, %lld/%lld rounds trained/skipped, "
      "%lld/%lld publishes ok/failed\n",
      served_s, counter("stream.ingest.points"), counter("stream.ingest.dropped_points"),
      static_cast<long long>(stats.trips), counter("stream.ingest.stay_points"),
      server.ingestor().updater().num_clusters(),
      counter("stream.retrain.rounds"), counter("stream.retrain.skipped"),
      counter("stream.publish.success"), counter("stream.publish.failures"));
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  const auto world = LoadWorldFlag(flags);
  if (!world) return 1;
  const dlinfma::Dataset data = dlinfma::BuildDataset(*world, {});
  const dlinfma::SampleSet samples = dlinfma::ExtractSamples(data, {});

  std::vector<baselines::MethodResult> results;
  baselines::GeocodingBaseline geocoding;
  results.push_back(baselines::RunMethod(&geocoding, data, samples));
  baselines::MinDistBaseline min_dist;
  results.push_back(baselines::RunMethod(&min_dist, data, samples));
  baselines::MaxTcIlcBaseline max_tc_ilc;
  results.push_back(baselines::RunMethod(&max_tc_ilc, data, samples));

  dlinfma::TrainConfig train_config;
  if (flags.count("quick") > 0) {
    train_config.max_epochs = 20;
    train_config.early_stop_patience = 5;
  }
  dlinfma::DlInfMaMethod method("DLInfMA", {}, train_config);
  results.push_back(baselines::RunMethod(&method, data, samples));
  baselines::PrintResultsTable("evaluate (" + world->name + ")", results);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);

  if (auto it = flags.find("log-json"); it != flags.end()) {
    if (it->second == "true") {
      obs::StructuredLog::Global().UseStderr();
    } else if (!obs::StructuredLog::Global().OpenFile(it->second)) {
      std::fprintf(stderr, "error: cannot open %s for --log-json\n",
                   it->second.c_str());
      return 1;
    }
  }
  const auto trace_out = flags.find("trace-out");
  if (trace_out != flags.end() && trace_out->second != "true") {
    obs::TraceLog::Global().Start(/*sample_rate=*/1.0);
  }
  const auto profile_out = flags.find("profile-out");
  int status = 2;
  try {
    if (profile_out != flags.end() && profile_out->second != "true") {
      obs::prof::RegisterCurrentThread("main");
      obs::prof::CpuProfiler::Options profile_options;
      profile_options.hz = IntFlag(flags, "profile-hz", profile_options.hz);
      std::string error;
      if (!obs::prof::CpuProfiler::Global().Start(profile_options, &error)) {
        std::fprintf(stderr, "error: cannot start profiler: %s\n",
                     error.c_str());
        return 1;
      }
    }

    // Which nn/ kernel path this process dispatched to (DESIGN.md §12) —
    // first thing in every structured log, so a perf report from the field
    // states whether it ran vectorized.
    obs::LogLine(obs::LogSeverity::kInfo, "startup.kernel_path")
        .Str("path", nn::kernel::PathName());

    if (command == "generate") {
      status = CmdGenerate(flags);
    } else if (command == "stats") {
      status = CmdStats(flags);
    } else if (command == "train") {
      status = CmdTrain(flags);
    } else if (command == "serve") {
      status = CmdServe(flags);
    } else if (command == "infer") {
      status = CmdInfer(flags);
    } else if (command == "stream") {
      status = CmdStream(flags);
    } else if (command == "evaluate") {
      status = CmdEvaluate(flags);
    } else {
      return Usage();
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // An output file that cannot be written turns a success into exit 1.
  auto write_out = [&status](const std::string& path,
                             const std::string& bytes) {
    std::string error;
    if (io::WriteFileAtomic(path, bytes, &error)) return true;
    std::fprintf(stderr, "error: %s\n", error.c_str());
    if (status == 0) status = 1;
    return false;
  };
  if (auto it = flags.find("metrics"); it != flags.end()) {
    const std::string json = obs::MetricsRegistry::Global().SnapshotJson();
    if (it->second == "true") {
      std::fputs(json.c_str(), stdout);
    } else {
      write_out(it->second, json);
    }
  }
  if (profile_out != flags.end() && profile_out->second != "true") {
    obs::prof::CpuProfiler& profiler = obs::prof::CpuProfiler::Global();
    profiler.Stop();
    const std::string& path = profile_out->second;
    if (write_out(path, path.ends_with(".json")
                            ? obs::prof::ExportCombinedChromeJson()
                            : profiler.ExportFolded())) {
      std::fprintf(stderr, "profile: %lld samples @ %d Hz -> %s\n",
                   static_cast<long long>(profiler.sample_count()),
                   profiler.hz(), path.c_str());
    }
  }
  if (trace_out != flags.end() && trace_out->second != "true") {
    obs::TraceLog::Global().Stop();
    if (write_out(trace_out->second,
                  obs::TraceLog::Global().ExportChromeJson())) {
      std::fprintf(stderr, "trace: %lld events -> %s\n",
                   static_cast<long long>(
                       obs::TraceLog::Global().recorded_events()),
                   trace_out->second.c_str());
    }
  }
  obs::StructuredLog::Global().Close();
  return status;
}
