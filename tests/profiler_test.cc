// Tests for the in-process sampling CPU profiler (DESIGN.md §15):
// disarmed-state inertness, sample capture under a spin workload, dladdr
// symbolization of a known hot frame (the nn/ GEMM kernel), Start/Stop
// idempotence, the combined Chrome export, and race-cleanliness of
// concurrent /metrics + /profilez scrapes (exercised under TSan/ASan by the
// sanitizer CI jobs).

#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/admin_routes.h"
#include "apps/http_conn.h"
#include "nn/kernels.h"
#include "obs/trace_log.h"

namespace dlinf {
namespace {

using obs::prof::CpuProfiler;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Burns CPU until `seconds` elapsed or `until_samples` samples captured.
void Spin(double seconds, int64_t until_samples = -1) {
  const double deadline = NowSeconds() + seconds;
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  while (NowSeconds() < deadline) {
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sink = sink + x;
    }
    if (until_samples >= 0 &&
        CpuProfiler::Global().sample_count() >= until_samples) {
      return;
    }
  }
}

/// Repeated small GEMMs — the known hot frame the folded export must
/// symbolize (dlinf::nn::kernel::Gemm or its detail::GemmAvx2 microkernel).
void GemmSpin(double seconds, int64_t until_samples) {
  constexpr int64_t kDim = 64;
  std::vector<float> a(kDim * kDim, 1.25f);
  std::vector<float> b(kDim * kDim, -0.75f);
  std::vector<float> c(kDim * kDim, 0.0f);
  const double deadline = NowSeconds() + seconds;
  while (NowSeconds() < deadline &&
         CpuProfiler::Global().sample_count() < until_samples) {
    nn::kernel::Gemm(kDim, kDim, kDim, a.data(), kDim, b.data(), kDim,
                     c.data(), kDim, /*accumulate=*/true);
  }
  // Keep the result alive so the whole loop cannot be eliminated.
  ASSERT_NE(c[0], 0.123456f);
}

TEST(ProfilerTest, DisarmedRecordsNothing) {
  obs::prof::RegisterCurrentThread("prof.disarmed");
  ASSERT_FALSE(obs::prof::ProfilingArmed());
  // A full capture cycle, then spin disarmed: the count must not move.
  ASSERT_TRUE(CpuProfiler::Global().Start());
  CpuProfiler::Global().Stop();
  const int64_t after_stop = CpuProfiler::Global().sample_count();
  Spin(0.1);
  EXPECT_EQ(CpuProfiler::Global().sample_count(), after_stop);
  EXPECT_FALSE(obs::prof::ProfilingArmed());
}

TEST(ProfilerTest, SamplesLandUnderSpinWorkload) {
  obs::prof::RegisterCurrentThread("prof.spin");
  CpuProfiler::Options options;
  options.hz = 500;
  ASSERT_TRUE(CpuProfiler::Global().Start(options));
  EXPECT_TRUE(obs::prof::ProfilingArmed());
  EXPECT_EQ(CpuProfiler::Global().hz(), 500);
  Spin(5.0, /*until_samples=*/20);
  CpuProfiler::Global().Stop();
  EXPECT_GE(CpuProfiler::Global().sample_count(), 20);

  const std::string folded = CpuProfiler::Global().ExportFolded();
  ASSERT_FALSE(folded.empty());
  // Every line is "thread;frames... count" for this thread.
  EXPECT_NE(folded.find("prof.spin;"), std::string::npos);
  // Folded lines end in a positive count.
  const size_t space = folded.find_last_of(' ');
  ASSERT_NE(space, std::string::npos);
  EXPECT_GT(std::stoll(folded.substr(space + 1)), 0);
}

TEST(ProfilerTest, GemmHotFrameIsSymbolized) {
  obs::prof::RegisterCurrentThread("prof.gemm");
  CpuProfiler::Options options;
  options.hz = 500;
  ASSERT_TRUE(CpuProfiler::Global().Start(options));
  GemmSpin(5.0, /*until_samples=*/30);
  CpuProfiler::Global().Stop();
  ASSERT_GE(CpuProfiler::Global().sample_count(), 1);

  const std::string folded = CpuProfiler::Global().ExportFolded();
  ASSERT_FALSE(folded.empty());
  if (nn::kernel::Avx2Enabled()) {
    // The AVX2 microkernel (dlinf::nn::kernel::detail::GemmAvx2) has
    // external linkage, so dladdr must resolve the hot leaf by name.
    EXPECT_NE(folded.find("nn::kernel"), std::string::npos) << folded;
  } else {
    // The scalar fallback kernel is file-local (no dynamic symbol); the
    // profile still attributes samples to this thread's stacks.
    EXPECT_NE(folded.find("prof.gemm;"), std::string::npos) << folded;
  }
}

TEST(ProfilerTest, StartStopIsIdempotent) {
  obs::prof::RegisterCurrentThread("prof.idem");
  ASSERT_TRUE(CpuProfiler::Global().Start());
  std::string error;
  EXPECT_FALSE(CpuProfiler::Global().Start(CpuProfiler::Options(), &error));
  EXPECT_NE(error.find("already"), std::string::npos);
  CpuProfiler::Global().Stop();
  CpuProfiler::Global().Stop();  // Second Stop is a no-op.
  EXPECT_FALSE(obs::prof::ProfilingArmed());
  // A fresh capture still works after the failed double-Start.
  ASSERT_TRUE(CpuProfiler::Global().Start());
  Spin(2.0, /*until_samples=*/1);
  CpuProfiler::Global().Stop();
  EXPECT_GE(CpuProfiler::Global().sample_count(), 0);
}

TEST(ProfilerTest, CombinedChromeExportMergesSpansAndSamples) {
  obs::prof::RegisterCurrentThread("prof.chrome");
  obs::TraceLog::Global().Start(/*sample_rate=*/1.0);
  CpuProfiler::Options options;
  options.hz = 500;
  ASSERT_TRUE(CpuProfiler::Global().Start(options));
  {
    obs::TraceSpan span("prof.chrome.span");
    Spin(5.0, /*until_samples=*/5);
  }
  CpuProfiler::Global().Stop();
  obs::TraceLog::Global().Stop();

  const std::string json = obs::prof::ExportCombinedChromeJson();
  // Span timeline (pid 1) and sample track (pid 2) share the envelope.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("prof.chrome.span"), std::string::npos);
  EXPECT_NE(json.find("cpu-profile"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // Named tracks: the trace-side metadata carries this thread's name.
  EXPECT_NE(json.find("prof.chrome"), std::string::npos);
}

TEST(ProfilerTest, ConcurrentMetricsAndProfilezScrapesRaceCleanly) {
  const apps::AdminRoutes admin;
  apps::HttpServer server;
  ASSERT_TRUE(admin.Serve(&server, {}));

  // Background CPU load so the capture has something to sample.
  std::atomic<bool> stop_spin{false};
  std::thread spinner([&stop_spin] {
    obs::prof::RegisterCurrentThread("prof.spinner");
    volatile uint64_t sink = 0;
    uint64_t x = 1;
    while (!stop_spin.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        sink = sink + x;
      }
    }
  });

  // One long capture; /metrics scrapes and a second /profilez race it.
  std::thread capture([&server] {
    int status = 0;
    std::string body;
    ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/profilez?seconds=1&hz=200",
                                  &status, &body));
    EXPECT_EQ(status, 200);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::vector<std::thread> scrapers;
  std::atomic<int> metrics_ok{0};
  for (int i = 0; i < 4; ++i) {
    scrapers.emplace_back([&server, &metrics_ok] {
      for (int j = 0; j < 5; ++j) {
        int status = 0;
        std::string body;
        if (apps::HttpGetOnce(server.port(), "/metrics", &status, &body) &&
            status == 200) {
          metrics_ok.fetch_add(1);
        }
      }
    });
  }
  // While the first capture runs, a second one must be refused, not queued.
  int conflict_status = 0;
  std::string conflict_body;
  ASSERT_TRUE(apps::HttpGetOnce(server.port(), "/profilez?seconds=1",
                                &conflict_status, &conflict_body));
  EXPECT_EQ(conflict_status, 409);

  for (std::thread& scraper : scrapers) scraper.join();
  capture.join();
  EXPECT_EQ(metrics_ok.load(), 20);

  stop_spin.store(true);
  spinner.join();
  apps::AdminRoutes::StopServer(&server);
  EXPECT_FALSE(obs::prof::ProfilingArmed());
}

TEST(ProfilerTest, CaptureManagerCancelAndJoinCutsCaptureShort) {
  std::atomic<int> responses{0};
  std::atomic<int> status_seen{0};
  ASSERT_TRUE(obs::prof::CaptureManager::Global().Begin(
      /*seconds=*/30.0, /*hz=*/99, /*chrome=*/false,
      [&responses, &status_seen](int status, const std::string&,
                                 const std::string&) {
        status_seen.store(status);
        responses.fetch_add(1);
      }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double begin = NowSeconds();
  obs::prof::CaptureManager::Global().CancelAndJoin();
  // Far sooner than the 30 s the capture asked for.
  EXPECT_LT(NowSeconds() - begin, 10.0);
  EXPECT_EQ(responses.load(), 1);
  EXPECT_EQ(status_seen.load(), 200);
  EXPECT_FALSE(obs::prof::ProfilingArmed());
}

}  // namespace
}  // namespace dlinf
