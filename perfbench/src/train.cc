// The `train` workload: the offline DLInfMA pipeline on the full SynDowBJ
// preset, BuildDataset -> ExtractSamples -> Fit -> InferAll -> SaveBundle,
// repeated until the run's time is used.

#include <cstdio>
#include <string>
#include <vector>

#include "dlinfma/dlinfma_method.h"
#include "dlinfma/metrics.h"
#include "io/bundle.h"
#include "host_speed.h"
#include "layer_trace.h"
#include "sim/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 7;  ///< GenerateWorld calls per run.

struct PipelineOutput {
  dlinf::dlinfma::EvalMetrics quality;
  int epochs = 0;
  std::vector<dlinf::Point> predicted;
};

/// One pass of the offline pipeline, each stage under its layer span.
PipelineOutput RunPipeline(const dlinf::sim::World& world,
                           const std::string& bundle_dir, bool forward_pass,
                           RunResult* result) {
  LayerSpan pipeline("pipeline");
  dlinf::dlinfma::Dataset data;
  {
    LayerSpan span("candidate_generation.build");
    data = dlinf::dlinfma::BuildDataset(world, {});
  }
  dlinf::dlinfma::SampleSet samples;
  {
    LayerSpan span("features.extract");
    samples = dlinf::dlinfma::ExtractSamples(data, {});
  }
  dlinf::dlinfma::DlInfMaMethod method("DLInfMA", {}, dlinf::dlinfma::TrainConfig{});
  {
    LayerSpan span("trainer.fit");
    method.Fit(data, samples);
  }
  PipelineOutput output;
  {
    LayerSpan span("inferrer.infer", static_cast<int64_t>(samples.test.size()));
    output.predicted = method.InferAll(data, samples.test);
  }
  {
    LayerSpan span("io.save_bundle");
    std::string error;
    if (!dlinf::io::SaveBundle(bundle_dir, world, data, samples, method, &error)) {
      result->Fail("SaveBundle failed: " + error);
    }
  }
  output.epochs = method.train_result().epochs_run;
  output.quality = dlinf::dlinfma::ComputeMetrics(
      output.predicted, dlinf::dlinfma::GroundTruthOf(world, samples.test));
  if (forward_pass) {
    // LocMatcher's batched forward over the train split, with no gradient
    // tape: PredictLogits is the public entry to ForEachLogitsBatch.
    LayerSpan span("locmatcher.forward");
    if (method.model()->PredictLogits(samples.train).size() != samples.train.size()) {
      result->Fail("PredictLogits returned the wrong number of rows");
    }
  }
  return output;
}

}  // namespace

RunResult RunTrain(const RunArgs& args) {
  RunResult result;
  const double rss_before = RssMiB();
  // Set-up: the SynDowBJ preset world, generated several times. The preset
  // is fixed (sim seed 42) so mae_m and beta50_pct stay comparable across
  // runs: they are the model's quality on one dataset, not on the seed's.
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  dlinf::sim::World world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double raw_s = 0.0;
    setup_s.push_back(NormalizedSeconds(
        [&] {
          LayerSpan span("sim.generate_world");
          world = dlinf::sim::GenerateWorld(dlinf::sim::SynDowBJConfig());
        },
        args.program_cpus.front(), &raw_s));
    raw_setup_s.push_back(raw_s);
  }
  PrintPhase("setup", kSetupRepeats, kSetupRepeats, 0);

  const std::string bundle_dir = args.work_dir + "/bundle";
  std::vector<double> pipeline_s;       // Per pass, wall.
  std::vector<double> pipeline_cpu_s;   // Per pass, thread CPU.
  std::vector<double> slowdown;         // Per pass, the host's.
  std::vector<PipelineOutput> outputs;
  // The pipeline is single-threaded: it runs on one CPU, and a speed probe
  // on that CPU samples the host's speed in the time the pipeline leaves.
  const int cpu_id = args.program_cpus.front();
  PinToCpus({cpu_id});
  int64_t probe_units = 0;
  const HostCpuTimes host_before = ReadHostCpuTimes();
  const double run_start = Now();
  do {
    SpeedProbe probe({cpu_id});
    const double cpu_start = ThreadCpuSeconds();
    const double start = Now();
    outputs.push_back(RunPipeline(world, bundle_dir, false, &result));
    pipeline_s.push_back(Now() - start);
    pipeline_cpu_s.push_back(ThreadCpuSeconds() - cpu_start);
    probe.Stop();
    slowdown.push_back(probe.Slowdown());
    probe_units += probe.units();
  } while (Now() - run_start < args.seconds);
  PinToCpus(args.program_cpus);
  std::vector<double> normalized_s;
  std::vector<double> normalized_cpu_s;
  for (size_t i = 0; i < pipeline_s.size(); ++i) {
    normalized_s.push_back(pipeline_s[i] / slowdown[i]);
    normalized_cpu_s.push_back(pipeline_cpu_s[i] / slowdown[i]);
  }
  result.per_layer["host.steal_frac"] = {
      StealFraction(host_before, ReadHostCpuTimes()), "ratio"};
  const double rss_after = RssMiB();
  const int64_t runs = static_cast<int64_t>(outputs.size());

  // Output checks: every pass reproduces the first bit for bit, and the
  // saved bundle warm-starts to the same answers.
  int64_t mismatched = 0;
  for (const PipelineOutput& output : outputs) {
    if (output.predicted.size() != outputs[0].predicted.size() ||
        output.epochs != outputs[0].epochs) {
      ++mismatched;
      continue;
    }
    for (size_t i = 0; i < output.predicted.size(); ++i) {
      if (output.predicted[i].x != outputs[0].predicted[i].x ||
          output.predicted[i].y != outputs[0].predicted[i].y) {
        ++mismatched;
        break;
      }
    }
  }
  PrintPhase("pipeline", runs, runs - mismatched, mismatched);
  if (mismatched > 0) result.Fail(std::to_string(mismatched) + " pipeline passes differ from the first");
  std::string error;
  auto bundle = dlinf::io::LoadBundle(bundle_dir, &error);
  int64_t warm_failed = 0;
  if (!bundle) {
    warm_failed = 1;
    result.Fail("LoadBundle of the saved bundle failed: " + error);
  } else {
    const std::vector<dlinf::Point> warm =
        bundle->method->InferAll(bundle->data, bundle->samples.test);
    bool same = warm.size() == outputs[0].predicted.size();
    for (size_t i = 0; same && i < warm.size(); ++i) {
      same = warm[i].x == outputs[0].predicted[i].x && warm[i].y == outputs[0].predicted[i].y;
    }
    if (!same) {
      warm_failed = 1;
      result.Fail("the warm-started bundle infers different locations");
    }
  }
  PrintPhase("warm_start", 1, 1 - warm_failed, warm_failed);
  result.attempted = runs + 1;
  result.failed = mismatched + warm_failed;
  const auto& quality = outputs[0].quality;
  std::printf("train: %lld passes, %d epochs, test %s\n", static_cast<long long>(runs),
              outputs[0].epochs, quality.ToString().c_str());
  std::vector<double> sorted = pipeline_s;
  std::printf("train latency: p50=%.1fms p75=%.1fms max=%.1fms over %lld passes\n",
              1e3 * Quantile(&sorted, 0.5), 1e3 * Quantile(&sorted, 0.75),
              1e3 * sorted.back(), static_cast<long long>(runs));

  if (args.trace) {
    // One more pass with the forward-only timing; its stage spans join the
    // totals above.
    RunPipeline(world, bundle_dir, true, &result);
  }
  result.per_layer["trainer.epochs"] = {static_cast<double>(outputs[0].epochs), "count"};

  std::printf("train raw: setup_s=%.6f latency_p50_ms=%.3f cpu_us_per_op=%.1f; "
              "host slowdown %.4f (median over passes, %lld probe units)\n",
              Median(raw_setup_s), 1e3 * Median(pipeline_s),
              1e6 * Median(pipeline_cpu_s), Median(slowdown),
              static_cast<long long>(probe_units));
  result.end_to_end["setup_s"] = {Median(setup_s), "s"};
  result.end_to_end["latency_p50_ms"] = {1e3 * Median(normalized_s), "ms"};
  result.end_to_end["cpu_us_per_op"] = {1e6 * Median(normalized_cpu_s), "us"};
  result.end_to_end["mem_mb"] = {rss_after - rss_before, "MiB"};
  result.end_to_end["freshness_s"] = {Median(normalized_s), "s"};
  result.end_to_end["mae_m"] = {quality.mae_m, "m"};
  result.end_to_end["beta50_pct"] = {quality.beta50_pct, "%"};
  return result;
}

}  // namespace perfbench
