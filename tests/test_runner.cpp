// Parallel experiment runner: determinism across thread counts, thread-pool
// shutdown semantics, shard scheduling edge cases, CLI parsing, and the
// JSONL record format.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "analysis/figures.h"
#include "common/flags.h"
#include "common/sim_time.h"
#include "common/statistics.h"
#include "runner/cli_args.h"
#include "runner/executor.h"
#include "runner/experiment.h"
#include "runner/result_sink.h"
#include "runner/thread_pool.h"

namespace cfds::runner {
namespace {

// --- ThreadPool -------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 64; ++i) {
    done.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ShutdownUnderLoadDrainsEveryQueuedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      (void)pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++count;
      });
    }
    // Destructor fires while most of the queue is still pending.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroMeansHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

// --- Seeding ----------------------------------------------------------

TEST(ShardSeed, DistinctAcrossPointsAndShards) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t point = 0; point < 16; ++point) {
    for (std::uint64_t shard = 0; shard < 16; ++shard) {
      seeds.insert(shard_seed(42, point, shard));
    }
  }
  EXPECT_EQ(seeds.size(), 256u);  // no collisions on a small grid
  EXPECT_NE(shard_seed(1, 0, 0), shard_seed(2, 0, 0));  // seed matters
}

// --- Executor determinism --------------------------------------------

ExperimentSpec small_mc_spec() {
  auto spec = ExperimentSpec::for_kind(EstimatorKind::kMcFalseDetection);
  spec.name = "determinism_probe";
  spec.grid = {GridPoint{20, 0.4}, GridPoint{30, 0.3}, GridPoint{25, 0.5}};
  spec.trials = 30000;
  spec.shard_trials = 4096;  // deliberately not a divisor of trials
  spec.seed = 99;
  return spec;
}

TEST(Executor, IdenticalResultsFor1And2And8Threads) {
  const auto spec = small_mc_spec();
  std::vector<std::vector<PointResult>> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    runs.push_back(run_experiment(spec, pool));
  }
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), spec.grid.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i].estimator.trials(), runs[0][i].estimator.trials());
      EXPECT_EQ(run[i].estimator.successes(),
                runs[0][i].estimator.successes());
    }
  }
}

TEST(Executor, JsonlIsByteIdenticalAcrossThreadCounts) {
  const auto spec = small_mc_spec();
  std::vector<std::vector<std::string>> lines;
  for (unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    CollectingSink sink;
    run_experiment(spec, pool, &sink);
    std::vector<std::string> run_lines;
    for (const auto& record : sink.records()) {
      run_lines.push_back(to_jsonl(record, /*include_wall_time=*/false));
    }
    lines.push_back(std::move(run_lines));
  }
  ASSERT_EQ(lines[0].size(), spec.grid.size());
  EXPECT_EQ(lines[0], lines[1]);
}

TEST(Executor, FullStackKindIsDeterministicAcrossThreadCounts) {
  auto spec = ExperimentSpec::for_kind(EstimatorKind::kStackFalseDetection);
  spec.grid = {GridPoint{12, 0.5}};
  spec.trials = 300;
  spec.shard_trials = 64;
  spec.seed = 7;
  std::vector<std::int64_t> successes;
  for (unsigned threads : {1u, 3u}) {
    ThreadPool pool(threads);
    const auto results = run_experiment(spec, pool);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].estimator.trials(), spec.trials);
    successes.push_back(results[0].estimator.successes());
  }
  EXPECT_EQ(successes[0], successes[1]);
}

// Golden JSONL for the semantic Figure 5 measure swept over N = 20, 30 and
// the paper's p sweep, 4000 trials per point, seed 7, without wall time,
// captured before the kernel/graph/dispatch optimisation pass. The simulator
// hot paths may be reworked freely, but these bytes pin the observable
// contract: identical schedule ordering, identical RNG draw sequence,
// identical serialization — at any thread count.
const char* const kFig5GoldenJsonl[] = {
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.050000000000000003,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.10000000000000001,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.15000000000000002,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.20000000000000001,"range":100,"trials":4000,"successes":1,"mean":0.00025000000000000001,"ci99":0.00125,"wilson_lo":2.9352046526831717e-05,"wilson_hi":0.0021257973054509393,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.25,"range":100,"trials":4000,"successes":3,"mean":0.00075000000000000002,"ci99":0.00125,"wilson_lo":0.00018946099099491961,"wilson_hi":0.0029640323836422032,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.30000000000000004,"range":100,"trials":4000,"successes":9,"mean":0.0022499999999999998,"ci99":0.0019296754448739236,"wilson_lo":0.00097736628492629384,"wilson_hi":0.0051711591576888843,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.35000000000000003,"range":100,"trials":4000,"successes":21,"mean":0.0052500000000000003,"ci99":0.0029431931822978211,"wilson_lo":0.0030165121054541396,"wilson_hi":0.0091220774731171524,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.40000000000000002,"range":100,"trials":4000,"successes":55,"mean":0.01375,"ci99":0.0047427147013192113,"wilson_lo":0.0097484547036317155,"wilson_hi":0.019361983260148558,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.45000000000000001,"range":100,"trials":4000,"successes":67,"mean":0.016750000000000001,"ci99":0.0052266272261941903,"wilson_lo":0.012266936081400465,"wilson_hi":0.022833566018335919,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":20,"p":0.5,"range":100,"trials":4000,"successes":186,"mean":0.0465,"ci99":0.0085756879242995729,"wilson_lo":0.0386494574357698,"wilson_hi":0.055852514012198033,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.050000000000000003,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.10000000000000001,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.15000000000000002,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.20000000000000001,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.25,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.30000000000000004,"range":100,"trials":4000,"successes":2,"mean":0.00050000000000000001,"ci99":0.00125,"wilson_lo":9.7620332879947867e-05,"wilson_hi":0.0025567010304274988,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.35000000000000003,"range":100,"trials":4000,"successes":0,"mean":0,"ci99":0.00125,"wilson_lo":1.0842021724855044e-19,"wilson_hi":0.0016559773406480947,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.40000000000000002,"range":100,"trials":4000,"successes":11,"mean":0.0027499999999999998,"ci99":0.0021328018687924049,"wilson_lo":0.001288821172960922,"wilson_hi":0.0058580482923136085,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.45000000000000001,"range":100,"trials":4000,"successes":16,"mean":0.0040000000000000001,"ci99":0.0025706432380709697,"wilson_lo":0.0021246901799837513,"wilson_hi":0.0075180393419391591,"seed":7,"shards":1})",
    R"({"experiment":"mc_false_detection","kind":"mc_false_detection","n":30,"p":0.5,"range":100,"trials":4000,"successes":60,"mean":0.014999999999999999,"ci99":0.0049504637871365144,"wilson_lo":0.010791950197486591,"wilson_hi":0.020814347822942059,"seed":7,"shards":1})",
};

TEST(Executor, Fig5JsonlMatchesPrePrGoldenAtAnyThreadCount) {
  // Rebuilds the golden's spec (same grid, trials, seed) and compares
  // serialized records byte-for-byte with the golden.
  auto spec = ExperimentSpec::for_kind(EstimatorKind::kMcFalseDetection);
  std::vector<double> ps;
  for (int i = 0; i < analysis::sweep_points(); ++i) {
    ps.push_back(analysis::sweep_p(i));
  }
  spec.grid = make_grid({20, 30}, ps);
  spec.trials = 4000;
  spec.seed = 7;

  constexpr std::size_t kGoldenLines =
      sizeof kFig5GoldenJsonl / sizeof kFig5GoldenJsonl[0];
  for (unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    CollectingSink sink;
    run_experiment(spec, pool, &sink);
    ASSERT_EQ(sink.records().size(), kGoldenLines) << threads << " threads";
    for (std::size_t i = 0; i < kGoldenLines; ++i) {
      EXPECT_EQ(to_jsonl(sink.records()[i], /*include_wall_time=*/false),
                kFig5GoldenJsonl[i])
          << "line " << i << " with " << threads << " threads";
    }
  }
}

TEST(Executor, EmptyGridYieldsNoPointsAndNoHang) {
  auto spec = small_mc_spec();
  spec.grid.clear();
  ThreadPool pool(2);
  CollectingSink sink;
  EXPECT_TRUE(run_experiment(spec, pool, &sink).empty());
  EXPECT_TRUE(sink.records().empty());
}

TEST(Executor, NonPositiveTrialsYieldNoPoints) {
  auto spec = small_mc_spec();
  spec.trials = 0;
  ThreadPool pool(2);
  EXPECT_TRUE(run_experiment(spec, pool).empty());
}

TEST(Executor, ShardDecompositionCoversExactlyTheTrialBudget) {
  auto spec = small_mc_spec();
  spec.trials = 10001;  // prime-ish: forces a short tail shard
  spec.shard_trials = 1000;
  ThreadPool pool(4);
  const auto results = run_experiment(spec, pool);
  for (const auto& result : results) {
    EXPECT_EQ(result.estimator.trials(), spec.trials);
    EXPECT_EQ(result.shards, 11);
  }
}

TEST(Executor, MatchesDirectSerialEstimatorOnSingleShard) {
  // One shard spanning the whole budget reduces to the serial estimator
  // with Rng(shard_seed(...)) — the parallel path adds nothing else.
  auto spec = small_mc_spec();
  spec.grid = {GridPoint{20, 0.4}};
  spec.trials = 5000;
  spec.shard_trials = 5000;
  ThreadPool pool(2);
  const auto results = run_experiment(spec, pool);
  const auto direct =
      run_shard(spec, spec.grid[0], spec.trials, shard_seed(spec.seed, 0, 0));
  EXPECT_EQ(results[0].estimator.successes(), direct.successes());
  EXPECT_EQ(results[0].estimator.trials(), direct.trials());
}

// --- Result records ---------------------------------------------------

TEST(ResultSink, RecordsCarryMergedCountsAndWilsonInterval) {
  const auto spec = small_mc_spec();
  ThreadPool pool(2);
  CollectingSink sink;
  run_experiment(spec, pool, &sink);
  ASSERT_EQ(sink.records().size(), spec.grid.size());
  for (const auto& record : sink.records()) {
    EXPECT_EQ(record.trials, spec.trials);
    EXPECT_DOUBLE_EQ(record.mean,
                     double(record.successes) / double(record.trials));
    EXPECT_LE(record.wilson.lo, record.mean);
    EXPECT_GE(record.wilson.hi, record.mean);
    EXPECT_GE(record.wilson.lo, 0.0);
    EXPECT_LE(record.wilson.hi, 1.0);
    EXPECT_EQ(record.seed, spec.seed);
  }
}

TEST(ResultSink, JsonlLineHasTheDocumentedFields) {
  PointRecord record;
  record.experiment = "probe";
  record.kind = EstimatorKind::kMcIncompleteness;
  record.point = GridPoint{50, 0.25};
  record.trials = 1000;
  record.successes = 250;
  record.mean = 0.25;
  record.ci99 = 0.035;
  record.wilson = wilson_ci99(250, 1000);
  record.seed = 17;
  record.shards = 2;
  record.wall_ms = 12.5;

  const std::string with_time = to_jsonl(record, true);
  EXPECT_NE(with_time.find("\"experiment\":\"probe\""), std::string::npos);
  EXPECT_NE(with_time.find("\"kind\":\"mc_incompleteness\""),
            std::string::npos);
  EXPECT_NE(with_time.find("\"n\":50"), std::string::npos);
  EXPECT_NE(with_time.find("\"p\":0.25"), std::string::npos);
  EXPECT_NE(with_time.find("\"trials\":1000"), std::string::npos);
  EXPECT_NE(with_time.find("\"successes\":250"), std::string::npos);
  EXPECT_NE(with_time.find("\"wilson_lo\":"), std::string::npos);
  EXPECT_NE(with_time.find("\"wall_ms\":12.500"), std::string::npos);
  EXPECT_EQ(with_time.back(), '}');

  const std::string without_time = to_jsonl(record, false);
  EXPECT_EQ(without_time.find("wall_ms"), std::string::npos);
}

/// A record with literal doubles, so %.17g's bytes are visible; the expected
/// lines were taken from the snprintf writer these replaced.
PointRecord pinned_point() {
  PointRecord record;
  record.experiment = "fig5_false_detection";
  record.kind = EstimatorKind::kMcFalseDetection;
  record.point = GridPoint{50, 0.3};
  record.trials = 400000;
  record.successes = 1234;
  record.mean = 0.003085;
  record.ci99 = 0.1;
  record.wilson = {1.0 / 3.0, 2e-7};
  record.seed = 3861;
  record.shards = 8;
  record.wall_ms = 12.34567;
  return record;
}

const char* const kPinnedPoint =
    "{\"experiment\":\"fig5_false_detection\",\"kind\":\"mc_false_detection\","
    "\"n\":50,\"p\":0.29999999999999999,\"range\":100,\"trials\":400000,"
    "\"successes\":1234,\"mean\":0.0030850000000000001,"
    "\"ci99\":0.10000000000000001,\"wilson_lo\":0.33333333333333331,"
    "\"wilson_hi\":1.9999999999999999e-07,\"seed\":3861,\"shards\":8";

BenchRecord pinned_bench() {
  BenchRecord record;
  record.bench = "graph_build";
  record.metric = "ms";
  record.n = 2000;
  record.value = 3.14159265;
  record.label = "baseline";
  return record;
}

TEST(ResultSink, RecordBytesArePinned) {
  const PointRecord point = pinned_point();
  EXPECT_EQ(to_jsonl(point, true),
            std::string(kPinnedPoint) + ",\"wall_ms\":12.346}");
  EXPECT_EQ(to_jsonl(point, false), std::string(kPinnedPoint) + "}");
  EXPECT_EQ(to_jsonl(pinned_bench()),
            "{\"bench\":\"graph_build\",\"metric\":\"ms\",\"n\":2000,"
            "\"value\":3.14159,\"label\":\"baseline\"}");
}

TEST(ResultSink, BenchLabelIsEscaped) {
  BenchRecord record = pinned_bench();
  record.label = "say \"hi\"\\now";
  EXPECT_EQ(to_jsonl(record),
            "{\"bench\":\"graph_build\",\"metric\":\"ms\",\"n\":2000,"
            "\"value\":3.14159,\"label\":\"say \\\"hi\\\"\\\\now\"}");
}

TEST(ResultSink, LongStringFieldsAreWrittenWhole) {
  BenchRecord bench = pinned_bench();
  bench.label = std::string(500, 'L');
  EXPECT_EQ(to_jsonl(bench),
            "{\"bench\":\"graph_build\",\"metric\":\"ms\",\"n\":2000,"
            "\"value\":3.14159,\"label\":\"" +
                bench.label + "\"}");

  PointRecord point = pinned_point();
  point.experiment = std::string(700, 'E');
  std::string expected = kPinnedPoint;
  expected.replace(expected.find("fig5_false_detection"),
                   std::string("fig5_false_detection").size(),
                   point.experiment);
  EXPECT_EQ(to_jsonl(point, false), expected + "}");
}

// --- Spec helpers -----------------------------------------------------

TEST(ExperimentSpec, GridCrossProductIsRowMajor) {
  const auto grid = make_grid({50, 75}, {0.1, 0.2, 0.3});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].n, 50);
  EXPECT_DOUBLE_EQ(grid[0].p, 0.1);
  EXPECT_EQ(grid[2].n, 50);
  EXPECT_DOUBLE_EQ(grid[2].p, 0.3);
  EXPECT_EQ(grid[3].n, 75);
  EXPECT_DOUBLE_EQ(grid[3].p, 0.1);
}

TEST(ExperimentSpec, FigureFactoriesSetTheAnalysisConditioning) {
  const auto fig7 = ExperimentSpec::for_kind(EstimatorKind::kStackIncompleteness);
  EXPECT_TRUE(fig7.pin_edge_node);
  EXPECT_EQ(fig7.num_deputies, 0u);
  const auto fig6 =
      ExperimentSpec::for_kind(EstimatorKind::kStackFalseDetectionOnCh);
  EXPECT_TRUE(fig6.pin_deputy_center);
  EXPECT_FALSE(fig6.pin_edge_node);
  EXPECT_EQ(fig6.num_deputies, 1u);
}

TEST(ExperimentSpec, AblationKnobsReachTheEstimators) {
  // Suspecting on one missed heartbeat makes false detection the raw loss
  // probability p; so does dropping peer forwarding for incompleteness. At
  // N = 75, p = 0.3 the full rule (~1.6e-8) and forwarding (~1e-5) sit
  // orders of magnitude below p, so an executor that ignored either knob
  // would land far outside the interval.
  auto heartbeat_only =
      ExperimentSpec::for_kind(EstimatorKind::kMcFalseDetection);
  heartbeat_only.rule_mode = RuleMode::kHeartbeatOnly;
  auto no_forwarding =
      ExperimentSpec::for_kind(EstimatorKind::kMcIncompleteness);
  no_forwarding.peer_forwarding = false;
  ThreadPool pool(2);
  for (ExperimentSpec* spec : {&heartbeat_only, &no_forwarding}) {
    spec->grid = {GridPoint{75, 0.3}};
    spec->trials = 20000;
    spec->seed = 11;
    const ProportionInterval wilson =
        run_experiment(*spec, pool).front().estimator.wilson99();
    EXPECT_LE(wilson.lo, 0.3) << spec->name;
    EXPECT_GE(wilson.hi, 0.3) << spec->name;
  }
}

// --- FlagSet ----------------------------------------------------------

std::vector<char*> make_argv(std::initializer_list<const char*> args) {
  std::vector<char*> argv;
  for (const char* arg : args) argv.push_back(const_cast<char*>(arg));
  argv.push_back(nullptr);
  return argv;
}

TEST(FlagSet, ConsumesKnownFlagsAndLeavesTheRest) {
  RunnerOptions options;
  FlagSet flags;
  add_runner_flags(flags, options);
  auto argv = make_argv({"prog", "--threads", "4", "--other", "x", "--trials",
                         "5000", "--out", "r.jsonl"});
  int argc = int(argv.size()) - 1;
  std::string error;
  ASSERT_TRUE(flags.parse(argc, argv.data(), &error)) << error;
  EXPECT_EQ(options.threads, 4);
  EXPECT_EQ(options.trials, 5000);
  EXPECT_EQ(options.out, "r.jsonl");
  ASSERT_EQ(argc, 3);  // prog --other x
  EXPECT_STREQ(argv[1], "--other");
  EXPECT_STREQ(argv[2], "x");
}

TEST(FlagSet, RejectsMalformedAndMissingValues) {
  RunnerOptions options;
  FlagSet flags;
  add_runner_flags(flags, options);
  {
    auto argv = make_argv({"prog", "--threads", "lots"});
    int argc = int(argv.size()) - 1;
    std::string error;
    EXPECT_FALSE(flags.parse(argc, argv.data(), &error));
    EXPECT_NE(error.find("--threads"), std::string::npos);
  }
  {
    auto argv = make_argv({"prog", "--seed"});
    int argc = int(argv.size()) - 1;
    std::string error;
    EXPECT_FALSE(flags.parse(argc, argv.data(), &error));
  }
  // Every number is read into its exact target type: a sign on an unsigned
  // target, a value outside the type's range and trailing characters all
  // fail, where a strtol-and-cast reader would wrap or truncate.
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  std::uint16_t u16 = 0;
  int i32 = 0;
  double real = 0.0;
  SimTime ms;
  FlagSet typed;
  typed.add_value("--u64", &u64, "");
  typed.add_value("--u32", &u32, "");
  typed.add_value("--u16", &u16, "");
  typed.add_value("--int", &i32, "");
  typed.add_value("--double", &real, "");
  typed.add_millis("--ms", &ms, "");
  for (const auto& [flag, value] :
       {std::pair{"--u64", "-1"}, {"--u32", "4294967296"}, {"--u16", "70000"},
        {"--int", "2147483648"}, {"--double", "12x"}, {"--double", "inf"},
        {"--ms", "-5"}, {"--u32", " 7"}, {"--u32", ""}}) {
    auto argv = make_argv({"prog", flag, value});
    int argc = int(argv.size()) - 1;
    std::string error;
    EXPECT_FALSE(typed.parse(argc, argv.data(), &error))
        << flag << ' ' << value;
  }
  {
    auto argv = make_argv({"prog", "--threads", "4294967297"});
    int argc = int(argv.size()) - 1;
    std::string error;
    EXPECT_FALSE(flags.parse(argc, argv.data(), &error));
  }
  // The extremes of each type still parse, exactly.
  auto argv = make_argv({"prog", "--u64", "18446744073709551615", "--u32",
                         "4294967295", "--u16", "65535", "--int",
                         "-2147483648", "--double", "5e-07", "--ms", "71"});
  int argc = int(argv.size()) - 1;
  std::string error;
  ASSERT_TRUE(typed.parse(argc, argv.data(), &error)) << error;
  EXPECT_EQ(u64, 18446744073709551615u);
  EXPECT_EQ(u32, 4294967295u);
  EXPECT_EQ(u16, 65535u);
  EXPECT_EQ(i32, -2147483647 - 1);
  EXPECT_EQ(real, 5e-07);
  EXPECT_EQ(ms, SimTime::millis(71));
}

TEST(FlagSet, GivenRecordsTheFlagsTheParseConsumed) {
  long trials = 0;
  bool quiet = false;
  FlagSet flags;
  flags.add_value("--trials", &trials, "trials");
  flags.add_flag("--quiet", &quiet, "quiet");
  auto argv = make_argv({"prog", "--trials", "0"});
  int argc = int(argv.size()) - 1;
  std::string error;
  ASSERT_TRUE(flags.parse(argc, argv.data(), &error)) << error;
  EXPECT_TRUE(flags.given("--trials"));  // even at its default value
  EXPECT_FALSE(flags.given("--quiet"));
  EXPECT_FALSE(flags.given("--unregistered"));
}

TEST(FlagSet, HelpIsConsumedAndRecorded) {
  for (const char* help : {"--help", "-h"}) {
    RunnerOptions options;
    FlagSet flags;
    add_runner_flags(flags, options);
    EXPECT_FALSE(flags.help_requested());
    auto argv = make_argv({"prog", "--trials", "2", help, "--other"});
    int argc = int(argv.size()) - 1;
    std::string error;
    ASSERT_TRUE(flags.parse(argc, argv.data(), &error)) << error;
    EXPECT_TRUE(flags.help_requested()) << help;
    EXPECT_EQ(options.trials, 2);
    ASSERT_EQ(argc, 2);  // prog --other
    EXPECT_STREQ(argv[1], "--other");
  }
}

TEST(FlagSetDeathTest, HelpExitsZeroBeforeTheCallerRuns) {
  long trials = 0;
  FlagSet flags;
  flags.add_value("--trials", &trials, "trials");
  auto argv = make_argv({"prog", "--trials", "2", "--help"});
  int argc = int(argv.size()) - 1;
  EXPECT_EXIT(
      {
        flags.parse_or_exit(argc, argv.data(),
                            [] { std::fputs("more flags\n", stderr); });
        std::fputs("ran past the parse\n", stderr);
        std::exit(1);
      },
      ::testing::ExitedWithCode(0), "more flags");
}

TEST(FlagSet, SeedAndTrialsSentinelsFallBackToCallerDefaults) {
  RunnerOptions options;
  EXPECT_EQ(options.seed_or(0xF15), 0xF15u);
  EXPECT_EQ(options.trials_or(400000), 400000);
  options.seed = 0;  // explicit zero is a real seed, not "unset"
  options.trials = 7;
  EXPECT_EQ(options.seed_or(0xF15), 0u);
  EXPECT_EQ(options.trials_or(400000), 7);
}

}  // namespace
}  // namespace cfds::runner
