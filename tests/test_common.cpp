// CSV writer/reader, CLI parser and flat-vector math helpers.

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/vec_math.hpp"

using namespace pdsl;

TEST(Csv, WriteReadRoundTrip) {
  const std::string path = "/tmp/pdsl_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b", "c"});
    w.row(1, 2.5, "x");
    w.row(4, 5.0, "y");
    w.flush();
    EXPECT_EQ(w.rows_written(), 2u);
  }
  const auto rows = read_csv(path);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1][0], "1");
  EXPECT_EQ(rows[2][2], "y");
}

TEST(Csv, ArityIsEnforced) {
  CsvWriter w("/tmp/pdsl_csv_test2.csv", {"a", "b"});
  EXPECT_THROW(w.row(1), std::invalid_argument);
  EXPECT_THROW(w.row(1, 2, 3), std::invalid_argument);
}

TEST(Csv, SplitLine) {
  EXPECT_EQ(split_csv_line("a,b,,c"), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split_csv_line(""), (std::vector<std::string>{""}));
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/tmp/definitely_missing_pdsl.csv"), std::runtime_error);
}

namespace {
CliArgs parse(std::vector<const char*> argv, std::vector<std::string> allowed) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(static_cast<int>(argv.size()), argv.data(), allowed);
}
}  // namespace

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const auto args = parse({"--rounds", "50", "--gamma=0.01"}, {"rounds", "gamma"});
  EXPECT_EQ(args.get_int("rounds", 0), 50);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0.0), 0.01);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const auto args = parse({}, {"rounds"});
  EXPECT_EQ(args.get_int("rounds", 7), 7);
  EXPECT_EQ(args.get_string("rounds", "z"), "z");
  EXPECT_FALSE(args.has("rounds"));
}

TEST(Cli, BareFlagIsTrue) {
  const auto args = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, Lists) {
  const auto args = parse({"--eps", "0.08,0.1,0.3", "--agents=10,20"}, {"eps", "agents"});
  EXPECT_EQ(args.get_double_list("eps", {}), (std::vector<double>{0.08, 0.1, 0.3}));
  EXPECT_EQ(args.get_int_list("agents", {}), (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(args.get_int_list("missing", {5}), (std::vector<std::int64_t>{5}));
}

TEST(Cli, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"rounds"}), std::invalid_argument);
  EXPECT_THROW(parse({"positional"}, {"rounds"}), std::invalid_argument);
}

TEST(Cli, DashAndUnderscoreAreOneCharacter) {
  for (const char* flag : {"--trace-out", "--trace_out"}) {
    SCOPED_TRACE(flag);
    const auto args = parse({flag, "t.json"}, {"trace-out"});
    EXPECT_TRUE(args.has("trace_out"));
    EXPECT_EQ(args.get_string("trace-out", ""), "t.json");
    EXPECT_EQ(args.get_string("trace_out", ""), "t.json");
  }
  EXPECT_THROW(parse({"--traceout", "x"}, {"trace-out"}), std::invalid_argument);
}

TEST(VecMath, AxpyDotNorm) {
  std::vector<float> a = {1.0f, 2.0f};
  axpy(a, {1.0f, 1.0f}, 2.0f);
  EXPECT_FLOAT_EQ(a[0], 3.0f);
  EXPECT_FLOAT_EQ(a[1], 4.0f);
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
  EXPECT_DOUBLE_EQ(l2_distance(a, {3.0f, 0.0f}), 4.0);
  std::vector<float> bad = {1.0f};
  EXPECT_THROW(axpy(a, bad, 1.0f), std::invalid_argument);
}

TEST(VecMath, WeightedSumAndMean) {
  const std::vector<float> a = {1.0f, 0.0f};
  const std::vector<float> b = {0.0f, 2.0f};
  const auto ws = weighted_sum({&a, &b}, {2.0, 0.5});
  EXPECT_FLOAT_EQ(ws[0], 2.0f);
  EXPECT_FLOAT_EQ(ws[1], 1.0f);
  const auto m = mean_of({&a, &b});
  EXPECT_FLOAT_EQ(m[0], 0.5f);
  EXPECT_FLOAT_EQ(m[1], 1.0f);
  EXPECT_THROW(weighted_sum({&a}, {1.0, 2.0}), std::invalid_argument);
}
