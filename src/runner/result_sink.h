// Thread-safe JSONL emission of per-point experiment results.
//
// One record per grid point, one JSON object per line:
//
//   {"experiment":"fig5_false_detection","kind":"mc_false_detection",
//    "n":50,"p":0.3,"range":100,"trials":400000,"successes":1234,
//    "mean":0.003085,"ci99":...,"wilson_lo":...,"wilson_hi":...,
//    "seed":3861,"shards":8,"wall_ms":12.5}
//
// Every field except wall_ms is a pure function of (spec, merged counts), so
// with wall-time emission disabled the byte stream is identical no matter
// how many threads produced it. The executor writes records in grid order
// from one thread; the sink still locks so several experiments may share it.

#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "runner/experiment.h"

namespace cfds::runner {

struct PointRecord {
  std::string experiment;
  EstimatorKind kind = EstimatorKind::kMcFalseDetection;
  GridPoint point;
  std::int64_t trials = 0;
  std::int64_t successes = 0;
  double mean = 0.0;
  double ci99 = 0.0;
  ProportionInterval wilson;
  std::uint64_t seed = 0;
  long shards = 0;
  double wall_ms = 0.0;
};

/// Serializes one record as a single JSON line (no trailing newline).
/// Doubles are printed with %.17g, enough to round-trip the exact bits.
[[nodiscard]] std::string to_jsonl(const PointRecord& record,
                                   bool include_wall_time);

/// One microbenchmark measurement (bench_kernel, bench_megascale):
///
///   {"bench":"graph_build","metric":"ms","n":2000,"value":3.1,
///    "label":"current"}
///
/// `label` distinguishes committed baselines ("pre_pr4", "post_pr5") from
/// fresh runs ("current") in BENCH_kernel.json-style trajectory files; set
/// it with the uniform --label flag.
struct BenchRecord {
  std::string bench;
  std::string metric;
  int n = 0;  ///< problem size; 0 when the metric has none
  double value = 0.0;
  std::string label = "current";
};

[[nodiscard]] std::string to_jsonl(const BenchRecord& record);

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const PointRecord& record) = 0;
};

/// Appends JSONL records to a file; the path "-" means stdout. Pass
/// include_wall_time=false for bit-reproducible output (determinism tests,
/// golden files).
class JsonlResultSink : public ResultSink {
 public:
  explicit JsonlResultSink(const std::string& path,
                           bool include_wall_time = true);
  ~JsonlResultSink() override;

  JsonlResultSink(const JsonlResultSink&) = delete;
  JsonlResultSink& operator=(const JsonlResultSink&) = delete;

  /// False if the output file could not be opened (records are dropped).
  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void write(const PointRecord& record) override;
  /// Appends one benchmark measurement line (perf trajectories).
  void write(const BenchRecord& record);

 private:
  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
  bool include_wall_time_ = true;
};

/// In-memory sink for tests.
class CollectingSink : public ResultSink {
 public:
  void write(const PointRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(record);
  }

  [[nodiscard]] const std::vector<PointRecord>& records() const {
    return records_;
  }

 private:
  std::mutex mutex_;
  std::vector<PointRecord> records_;
};

}  // namespace cfds::runner
