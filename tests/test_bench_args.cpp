// Bench CLI parsing policy (bench/common.hpp): strict, fail-at-launch.
// Also the shared trial harness (bench::Trials) every bench reports
// median/IQR through.
//
// A typoed flag on an overnight sweep used to silently run defaults and
// produce wrong-but-plausible numbers; try_parse_args/try_parse_fast are
// the testable cores behind the exiting wrappers, so the policy is pinned
// here without spawning processes.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "bench/common.hpp"

namespace metro::bench {
namespace {

/// argv builder: parse("--fast", "--jobs=4") -> try_parse_args result.
struct Parsed {
  bool ok = false;
  Args args;
  std::string error;
};

Parsed parse(std::vector<std::string> flags,
             BackendChoice def_backend = BackendChoice::kAll, int def_jobs = 2) {
  std::vector<char*> argv;
  std::string argv0 = "bench_test";
  argv.push_back(argv0.data());
  for (auto& f : flags) argv.push_back(f.data());
  Parsed p;
  p.ok = try_parse_args(static_cast<int>(argv.size()), argv.data(), def_backend, def_jobs,
                        p.args, p.error);
  return p;
}

TEST(BenchArgsTest, NoFlagsKeepsDefaults) {
  const auto p = parse({}, BackendChoice::kHeap, 3);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_FALSE(p.args.fast);
  EXPECT_FALSE(p.args.list);
  EXPECT_EQ(p.args.backend, BackendChoice::kHeap);
  EXPECT_EQ(p.args.jobs, 3);
  EXPECT_TRUE(p.args.trace.empty());
  EXPECT_TRUE(p.args.only.empty());
  EXPECT_EQ(p.args.deadline_s, 0.0);
}

TEST(BenchArgsTest, AllFlagsParse) {
  const auto p = parse({"--fast", "--backend=wheel", "--jobs=8", "--trace=cap.pcap",
                        "--only=cbr_lossy,imix_corrupt", "--deadline=30", "--list"});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_TRUE(p.args.fast);
  EXPECT_TRUE(p.args.list);
  EXPECT_EQ(p.args.backend, BackendChoice::kWheel);
  EXPECT_EQ(p.args.jobs, 8);
  EXPECT_EQ(p.args.trace, "cap.pcap");
  ASSERT_EQ(p.args.only.size(), 2u);
  EXPECT_EQ(p.args.only[0], "cbr_lossy");
  EXPECT_EQ(p.args.only[1], "imix_corrupt");
  EXPECT_DOUBLE_EQ(p.args.deadline_s, 30.0);
}

TEST(BenchArgsTest, UnknownFlagRejectedWithTheOffendingSpelling) {
  // The motivating typo: --backed must not silently run both backends.
  const auto p = parse({"--backed=wheel"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("--backed=wheel"), std::string::npos) << p.error;
  ASSERT_FALSE(parse({"--fats"}).ok);
  ASSERT_FALSE(parse({"extra_positional"}).ok);
  ASSERT_FALSE(parse({"--fast", "--nonsense"}).ok) << "later flags are checked too";
}

TEST(BenchArgsTest, BackendValueValidated) {
  EXPECT_EQ(parse({"--backend=heap"}).args.backend, BackendChoice::kHeap);
  EXPECT_EQ(parse({"--backend=wheel"}).args.backend, BackendChoice::kWheel);
  EXPECT_EQ(parse({"--backend=all"}).args.backend, BackendChoice::kAll);
  const auto p = parse({"--backend=lader"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("lader"), std::string::npos);
  const auto q = parse({"--backend=wheeel"});
  ASSERT_FALSE(q.ok);
  EXPECT_NE(q.error.find("wheeel"), std::string::npos);
  EXPECT_NE(q.error.find("wheel"), std::string::npos) << "error lists the valid spellings";
}

TEST(BenchArgsTest, RetiredBackendValuesRejected) {
  // Only heap|wheel|all exist: the retired "ladder" and "both" spellings
  // must fail at launch, not silently run some other backend set.
  for (const char* flag : {"--backend=ladder", "--backend=both"}) {
    const auto p = parse({flag});
    ASSERT_FALSE(p.ok) << flag;
    EXPECT_NE(p.error.find(std::string(flag).substr(10)), std::string::npos) << p.error;
    EXPECT_NE(p.error.find("heap|wheel|all"), std::string::npos)
        << "error lists the valid spellings: " << p.error;
  }
  EXPECT_NE(std::string(usage_text()).find("--backend=heap|wheel|all"), std::string::npos);
}

TEST(BenchArgsTest, BackendSelectionsMapToKinds) {
  using scenario::BackendKind;
  EXPECT_EQ(backend_kinds(BackendChoice::kHeap),
            (std::vector<BackendKind>{BackendKind::kHeap}));
  EXPECT_EQ(backend_kinds(BackendChoice::kWheel),
            (std::vector<BackendKind>{BackendKind::kWheel}));
  EXPECT_EQ(backend_kinds(BackendChoice::kAll),
            (std::vector<BackendKind>{BackendKind::kHeap, BackendKind::kWheel}));
}

TEST(BenchArgsTest, JobsMustBeAWholeNumberInRange) {
  EXPECT_EQ(parse({"--jobs=1"}).args.jobs, 1);
  EXPECT_EQ(parse({"--jobs=1024"}).args.jobs, 1024);
  EXPECT_FALSE(parse({"--jobs=0"}).ok);
  EXPECT_FALSE(parse({"--jobs=-2"}).ok);
  EXPECT_FALSE(parse({"--jobs=1025"}).ok);
  EXPECT_FALSE(parse({"--jobs=abc"}).ok);
  EXPECT_FALSE(parse({"--jobs=4x"}).ok) << "trailing garbage is malformed, not ignored";
  EXPECT_FALSE(parse({"--jobs="}).ok);
}

TEST(BenchArgsTest, TraceNeedsAPath) {
  EXPECT_FALSE(parse({"--trace="}).ok);
}

TEST(BenchArgsTest, OnlySplitsOnCommasAndSkipsEmpties) {
  const auto p = parse({"--only=a,,b,"});
  ASSERT_TRUE(p.ok) << p.error;
  ASSERT_EQ(p.args.only.size(), 2u);
  EXPECT_EQ(p.args.only[0], "a");
  EXPECT_EQ(p.args.only[1], "b");
  EXPECT_FALSE(parse({"--only="}).ok);
  EXPECT_FALSE(parse({"--only=,,"}).ok);
}

TEST(BenchArgsTest, DeadlineMustBePositiveSeconds) {
  EXPECT_DOUBLE_EQ(parse({"--deadline=0.5"}).args.deadline_s, 0.5);
  EXPECT_FALSE(parse({"--deadline=0"}).ok);
  EXPECT_FALSE(parse({"--deadline=-1"}).ok);
  EXPECT_FALSE(parse({"--deadline=soon"}).ok);
  EXPECT_FALSE(parse({"--deadline=1.5s"}).ok);
  EXPECT_FALSE(parse({"--deadline="}).ok);
}

TEST(BenchArgsTest, CryptoModeValidated) {
  EXPECT_EQ(parse({}).args.crypto, CryptoMode::kCalibrated) << "calibrated is the default";
  EXPECT_EQ(parse({"--crypto=calibrated"}).args.crypto, CryptoMode::kCalibrated);
  EXPECT_EQ(parse({"--crypto=live"}).args.crypto, CryptoMode::kLive);
  const auto p = parse({"--crypto=lvie"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("lvie"), std::string::npos);
  EXPECT_NE(p.error.find("live"), std::string::npos) << "error lists the valid spellings";
  EXPECT_FALSE(parse({"--crypto="}).ok);
}

TEST(BenchArgsTest, SeriesMustBePositiveMicros) {
  EXPECT_DOUBLE_EQ(parse({}).args.series_us, 0.0) << "series sampling is off by default";
  EXPECT_DOUBLE_EQ(parse({"--series=5000"}).args.series_us, 5000.0);
  EXPECT_DOUBLE_EQ(parse({"--series=0.5"}).args.series_us, 0.5);
  EXPECT_FALSE(parse({"--series=0"}).ok);
  EXPECT_FALSE(parse({"--series=-100"}).ok);
  EXPECT_FALSE(parse({"--series=soon"}).ok);
  EXPECT_FALSE(parse({"--series=5000us"}).ok) << "trailing garbage is malformed";
  EXPECT_FALSE(parse({"--series="}).ok);
  const auto p = parse({"--series=abc"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("abc"), std::string::npos) << p.error;
}

TEST(BenchArgsTest, TraceOutNeedsAPath) {
  EXPECT_TRUE(parse({}).args.trace_out.empty()) << "tracing is off by default";
  EXPECT_EQ(parse({"--trace-out=t.json"}).args.trace_out, "t.json");
  EXPECT_FALSE(parse({"--trace-out="}).ok);
  // --trace-out must not be swallowed by the --trace= prefix (a pcap path
  // named "-out=t.json" would be silently wrong).
  EXPECT_TRUE(parse({"--trace-out=t.json"}).args.trace.empty());
  EXPECT_EQ(parse({"--trace=cap.pcap", "--trace-out=t.json"}).args.trace, "cap.pcap");
}

TEST(BenchArgsTest, FlowsMustBeAPositiveCount) {
  EXPECT_EQ(parse({}).args.flows, 0u) << "registry populations are the default";
  EXPECT_EQ(parse({"--flows=1"}).args.flows, 1u);
  EXPECT_EQ(parse({"--flows=4194304"}).args.flows, 4194304u);
  EXPECT_EQ(parse({"--flows=67108864"}).args.flows, 67108864u) << "2^26 is the ceiling";
  EXPECT_FALSE(parse({"--flows=67108865"}).ok) << "beyond 2^26 is rejected";
  EXPECT_FALSE(parse({"--flows=0"}).ok);
  EXPECT_FALSE(parse({"--flows=-5"}).ok);
  EXPECT_FALSE(parse({"--flows=many"}).ok);
  EXPECT_FALSE(parse({"--flows=1e6"}).ok) << "trailing garbage is malformed";
  EXPECT_FALSE(parse({"--flows="}).ok);
  const auto p = parse({"--flows=abc"});
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("abc"), std::string::npos) << p.error;
}

TEST(BenchArgsTest, UsageTextMentionsEveryFlag) {
  const std::string usage = usage_text();
  for (const char* flag : {"--fast", "--backend", "--jobs", "--trace", "--list", "--only",
                           "--deadline", "--crypto", "--series", "--trace-out", "--flows"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

TEST(BenchArgsTest, ParseFastAcceptsOnlyFast) {
  std::string argv0 = "bench_fig", f1 = "--fast";
  std::array<char*, 2> ok_argv{argv0.data(), f1.data()};
  bool fast = false;
  std::string error;
  ASSERT_TRUE(try_parse_fast(2, ok_argv.data(), fast, error));
  EXPECT_TRUE(fast);
  ASSERT_TRUE(try_parse_fast(1, ok_argv.data(), fast, error));
  EXPECT_FALSE(fast) << "no flags: full windows";

  // The single-flag benches reject sweep flags too — --jobs on a bench
  // whose headline is wall time would silently mean nothing.
  std::string f2 = "--jobs=4";
  std::array<char*, 2> bad_argv{argv0.data(), f2.data()};
  ASSERT_FALSE(try_parse_fast(2, bad_argv.data(), fast, error));
  EXPECT_NE(error.find("--jobs=4"), std::string::npos) << error;
}

/// Trials over a fixed sample list: the thunk hands out the next value
/// on each call, so the test also sees how often it ran.
Trials trials_of(std::vector<double> values, int& calls) {
  calls = 0;
  return Trials::run(static_cast<int>(values.size()),
                     [&] { return values[static_cast<std::size_t>(calls++)]; });
}

TEST(BenchTrialsTest, OddSampleMedianAndInterpolatedIqr) {
  int calls = 0;
  const Trials t = trials_of({5.0, 1.0, 4.0, 2.0, 3.0}, calls);
  EXPECT_EQ(calls, 5);
  EXPECT_DOUBLE_EQ(t.median, 3.0);
  EXPECT_DOUBLE_EQ(t.iqr, 2.0) << "p75 4 - p25 2";
  const Trials direct = Trials::of({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(direct.median, t.median) << "interleaved samples summarise alike";
  EXPECT_DOUBLE_EQ(direct.iqr, t.iqr);
}

TEST(BenchTrialsTest, EvenSampleMedianIsTheMiddleMean) {
  int calls = 0;
  const Trials t = trials_of({10.0, 40.0, 20.0, 30.0}, calls);
  EXPECT_EQ(calls, 4);
  EXPECT_DOUBLE_EQ(t.median, 25.0);
  EXPECT_DOUBLE_EQ(t.iqr, 15.0) << "p75 32.5 - p25 17.5";
  const Trials pair = trials_of({1.0, 3.0}, calls);
  EXPECT_DOUBLE_EQ(pair.median, 2.0);
  EXPECT_DOUBLE_EQ(pair.iqr, 1.0) << "p75 2.5 - p25 1.5";
}

TEST(BenchTrialsTest, OneSampleHasZeroIqr) {
  int calls = 0;
  const Trials t = trials_of({7.5}, calls);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(t.median, 7.5);
  EXPECT_DOUBLE_EQ(t.iqr, 0.0);
}

TEST(BenchTrialsTest, ThunkRunsExactlyNTimes) {
  for (const int n : {0, 1, 2, 9}) {
    int calls = 0;
    const Trials t = Trials::run(n, [&] { return static_cast<double>(++calls); });
    EXPECT_EQ(calls, n);
    EXPECT_DOUBLE_EQ(t.median, n == 0 ? 0.0 : (n + 1) / 2.0) << "samples 1..n";
  }
}

}  // namespace
}  // namespace metro::bench
