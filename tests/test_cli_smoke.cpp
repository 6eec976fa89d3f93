// End-to-end smoke test for the CLI observability surface: runs the real
// pdsl_cli binary (path injected by CMake as PDSL_CLI_PATH) with --profile
// and --trace-out on a tiny config, then validates the phase table on stdout
// and the Chrome trace JSON on disk. This doubles as the ctest smoke target
// for the S-OBS subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/schema.hpp"
#include "core/config_io.hpp"

#ifndef PDSL_CLI_PATH
#error "PDSL_CLI_PATH must be defined by the build (path to the pdsl_cli binary)"
#endif

namespace {

using pdsl::json::Value;

constexpr std::size_t kRounds = 3;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `pdsl_cli run <extra_flags>` on the tiny base config; returns the
/// process exit status and fills `output` with combined stdout+stderr.
int run_cli(const std::string& extra_flags, std::string* output) {
  const std::string out = temp_path("pdsl_smoke_exit.txt");
  std::ostringstream cmd;
  cmd << '"' << PDSL_CLI_PATH << '"'
      << " run --algorithm pdsl --agents 4 --rounds 1 --train 240 --image 8"
      << " --batch 8 --mc_perms 2 --valbatch 16 " << extra_flags << " > \"" << out
      << "\" 2>&1";
  const int status = std::system(cmd.str().c_str());
  *output = slurp(out);
  std::remove(out.c_str());
  return status;
}

}  // namespace

TEST(CliSmoke, ProfileAndTraceOnTinyRun) {
  const std::string trace = temp_path("pdsl_smoke_trace.json");
  const std::string metrics = temp_path("pdsl_smoke_metrics.csv");
  const std::string out = temp_path("pdsl_smoke_stdout.txt");

  std::ostringstream cmd;
  cmd << '"' << PDSL_CLI_PATH << '"'
      << " run --algorithm pdsl --agents 4 --rounds " << kRounds
      << " --train 240 --image 8 --batch 8 --mc_perms 2 --valbatch 16"
      << " --profile --trace-out \"" << trace << '"'
      << " --metrics-out \"" << metrics << '"'
      << " > \"" << out << "\" 2>&1";
  ASSERT_EQ(std::system(cmd.str().c_str()), 0) << slurp(out);

  // Phase table and counters made it to stdout.
  const std::string stdout_text = slurp(out);
  for (const char* needle :
       {"phase", "isa=", "local_grad", "shapley", "gossip", "total", "shapley.coalition_evals"}) {
    EXPECT_NE(stdout_text.find(needle), std::string::npos)
        << "missing '" << needle << "' in:\n" << stdout_text;
  }

  // Trace file is valid Chrome trace JSON with >=1 span per phase per round.
  const Value v = pdsl::json::parse_file(trace);
  const auto& events = v.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  std::map<std::string, std::size_t> per_phase;
  for (const auto& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    per_phase[ev.at("name").as_string()]++;
  }
  for (const char* phase : {"local_grad", "crossgrad", "shapley", "aggregate", "gossip"}) {
    EXPECT_GE(per_phase[phase], kRounds) << "phase " << phase;
  }
  EXPECT_GE(per_phase["round"], kRounds);

  // Metrics registry dump exists and includes the key instruments.
  const std::string metrics_text = slurp(metrics);
  EXPECT_NE(metrics_text.find("shapley.coalition_evals"), std::string::npos);
  EXPECT_NE(metrics_text.find("dp.sigma"), std::string::npos);
  EXPECT_NE(metrics_text.find("net.bytes"), std::string::npos);

  std::remove(trace.c_str());
  std::remove(metrics.c_str());
  std::remove(out.c_str());
}

TEST(CliSmoke, OutOfRangeFlagsFailLoudlyWithTheFlagName) {
  // Every numeric-range rejection must exit nonzero and name the offending
  // flag so a sweep-script typo is diagnosable from the error line alone.
  const struct {
    const char* flags;
    const char* needle;
  } cases[] = {
      {"--drop-prob 1.5", "--drop-prob"},
      {"--drop-prob -0.1", "--drop-prob"},
      {"--churn 2.0", "--churn"},
      {"--staleness -1", "--staleness"},
      {"--byz-frac 1.0", "frac"},
      {"--byz-mode bogus", "bogus"},
      {"--byz-onset -3", "--byz-onset"},
      {"--agents 0", "--agents"},
      {"--robust-agg krum", "krum"},
      {"--backend vectorized", "vectorized"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flags);
    std::string output;
    EXPECT_NE(run_cli(c.flags, &output), 0);
    EXPECT_NE(output.find(c.needle), std::string::npos)
        << "error does not mention '" << c.needle << "':\n" << output;
  }
}

TEST(CliSmoke, ByzantineRunReportsDefenseCounters) {
  std::string output;
  ASSERT_EQ(run_cli("--byz-frac 0.25 --byz-mode sign_flip", &output), 0) << output;
  EXPECT_NE(output.find("byzantine:"), std::string::npos) << output;
  EXPECT_NE(output.find("corrupted="), std::string::npos) << output;
}

TEST(CliSmoke, DashAndUnderscoreSpellTheSameFlag) {
  // CliArgs folds '-' into '_' in flag names, so both spellings are accepted
  // and reach the same setting, including its range check.
  for (const std::string flag : {"--drop-prob", "--drop_prob"}) {
    SCOPED_TRACE(flag);
    std::string output;
    ASSERT_EQ(run_cli(flag + " 0.3", &output), 0) << output;
    EXPECT_NE(output.find("faults: dropped="), std::string::npos) << output;
    EXPECT_NE(run_cli(flag + " 1.5", &output), 0);
    EXPECT_NE(output.find("--drop-prob must be in [0,1)"), std::string::npos) << output;
  }
}

TEST(CliSmoke, RecoveryFlagsAreValidatedWithTheFlagName) {
  const struct {
    const char* flags;
    const char* needle;
  } cases[] = {
      {"--corrupt-prob 1.0", "--corrupt-prob"},
      {"--corrupt-prob -0.2", "--corrupt-prob"},
      {"--dup-prob 1.0", "--dup-prob"},
      {"--reorder-prob 2.5", "--reorder-prob"},
      {"--crash-prob 1.0", "--crash-prob"},
      {"--max-retries -1", "--max-retries"},
      {"--crash-prob 0.1 --snapshot-every 0", "snapshot_every"},
      {"--checkpoint-every 2", "--checkpoint-path"},
      {"--resume-from /tmp/definitely_missing_pdsl_runstate.bin", "cannot open"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.flags);
    std::string output;
    EXPECT_NE(run_cli(c.flags, &output), 0);
    EXPECT_NE(output.find(c.needle), std::string::npos)
        << "error does not mention '" << c.needle << "':\n" << output;
  }
}

TEST(CliSmoke, ChaosRunReportsTransportAndRecoveryCounters) {
  std::string output;
  ASSERT_EQ(run_cli("--rounds 3 --corrupt-prob 0.2 --dup-prob 0.1 --reorder-prob 0.1"
                    " --crash-prob 0.2 --snapshot-every 2",
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("transport:"), std::string::npos) << output;
  EXPECT_NE(output.find("retransmits="), std::string::npos) << output;
  EXPECT_NE(output.find("recovery:"), std::string::npos) << output;
  EXPECT_NE(output.find("crashes="), std::string::npos) << output;
}

TEST(CliSmoke, CheckpointThenResumeContinuesTheRun) {
  const std::string ck = temp_path("pdsl_smoke_resume.bin");
  std::remove(ck.c_str());
  std::string output;
  ASSERT_EQ(run_cli("--rounds 4 --checkpoint-every 2 --checkpoint-path \"" + ck + "\"",
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("run state checkpointed"), std::string::npos) << output;

  std::string resumed;
  ASSERT_EQ(run_cli("--rounds 4 --resume-from \"" + ck + "\"", &resumed), 0) << resumed;
  EXPECT_NE(resumed.find("resumed from round 2"), std::string::npos) << resumed;

  // A config drift (different gamma) must be refused, naming the cause.
  std::string refused;
  EXPECT_NE(run_cli("--rounds 4 --gamma 0.3 --resume-from \"" + ck + "\"", &refused), 0);
  EXPECT_NE(refused.find("different experiment configuration"), std::string::npos)
      << refused;
  std::remove(ck.c_str());
}

TEST(CliSmoke, ConfigFileEvalEveryIsNotOverriddenByTheCliDefault) {
  // The CLI's demo default (accuracy every 5 rounds) applies only without
  // --config; a file's eval_every wins, and the table prints each round it
  // evaluated.
  const std::string cfg = temp_path("pdsl_smoke_eval_every.json");
  std::ofstream(cfg) << R"({"agents": 4, "rounds": 4, "train_samples": 240, "image": 8,)"
                     << R"( "batch": 8, "shapley_permutations": 2, "validation_batch": 16,)"
                     << R"( "eval_every": 1})";
  const std::string out = temp_path("pdsl_smoke_eval_every.txt");
  const std::string cmd = std::string("\"") + PDSL_CLI_PATH + "\" run --config \"" + cfg +
                          "\" > \"" + out + "\" 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(out);
  const std::string text = slurp(out);
  std::size_t rows = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream cells(line);
    std::size_t round = 0;
    double loss = 0.0;
    double acc = 0.0;
    if (cells >> round >> loss >> acc) {
      EXPECT_EQ(round, rows + 1) << text;
      EXPECT_GT(acc, 0.0) << "round " << round << " was not evaluated:\n" << text;
      ++rows;
    }
  }
  EXPECT_EQ(rows, 4u) << text;
  std::remove(cfg.c_str());
  std::remove(out.c_str());
}

TEST(CliSmoke, HelpNamesEveryRunFlag) {
  // The help text is written by hand; every flag the schema declares must
  // appear in it as --<flag> (either spelling: CliArgs folds '-' and '_').
  const std::string out = temp_path("pdsl_smoke_help.txt");
  ASSERT_EQ(std::system((std::string("\"") + PDSL_CLI_PATH + "\" help > \"" + out + "\"").c_str()),
            0);
  std::string help = slurp(out);
  std::remove(out.c_str());
  std::replace(help.begin(), help.end(), '_', '-');
  for (std::string flag : pdsl::schema::flags<pdsl::core::ExperimentConfig>()) {
    std::replace(flag.begin(), flag.end(), '_', '-');
    const std::regex named("--" + flag + "(?![a-z0-9-])");
    EXPECT_TRUE(std::regex_search(help, named)) << "--" << flag << " missing from help";
  }
}

TEST(CliSmoke, RunAcceptsExactlyItsFlagSet) {
  // Every flag the schema declares (test_json pins that list) and each of
  // the CLI's own is accepted: with all of them given, the only complaint is
  // about the one unknown flag at the end.
  auto flags = pdsl::schema::flags<pdsl::core::ExperimentConfig>();
  flags.insert(flags.end(), {"config", "json", "seeds", "csv", "save_model", "metrics-out"});
  std::string all;
  for (const auto& f : flags) all += " --" + f + " 1";
  std::string output;
  EXPECT_NE(run_cli(all + " --not-a-flag 1", &output), 0);
  EXPECT_NE(output.find("unknown flag --not-a-flag"), std::string::npos) << output;

  // Keys that only a config file sets have no flag.
  for (const char* key : {"iid", "sigma", "eval_every", "test_samples", "faults", "trim_frac",
                          "phi_hat_min", "byzantine_agents"}) {
    SCOPED_TRACE(key);
    EXPECT_NE(run_cli(std::string("--") + key + " 1", &output), 0);
    EXPECT_NE(output.find(std::string("unknown flag --") + key), std::string::npos) << output;
  }
}
