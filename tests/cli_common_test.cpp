// The number rule (util/spec_parse.h) and every grammar that reads
// numbers through it: --tenants, workloads, policies, --faults, sweep
// axis lists and the tools' numeric flags (tools/cli_common.h). The
// edge cases a quoting accident or a stray shell expansion produces —
// inf/nan, out-of-range literals, whitespace, hex, partial parses — must
// get the same verdict in every position, an accepted token must read as
// the same value everywhere, and a mutated spec may only parse or throw
// std::invalid_argument (cli::UsageError through the tools' helpers).
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

/// Tokens by the rule's verdict. The fuzz test splices kBadCorpus;
/// the other lists fold in the old flag parser's edge cases.
const std::vector<std::string> kBadCorpus = {
    "inf", "nan", "1e30", "-1", " 5", "0x10", "5x", "18446744073709551616"};
const std::vector<std::string> kNotNumbers = {
    "inf", "nan", " 5", "0x10", "5x", "INF", "+inf", "-inf", "infinity",
    "NaN", "nan(0)", "1e999", "-1e999", "\t5", "\n5", "5 ", "1.5x", "x1.5",
    " ", "--", "+5", "0x1p-1", "1e", "e5", "5\t", "4x", "1e+3"};
const std::vector<std::string> kNumbersNotCounts = {
    "1e30", "-1", "18446744073709551616", "99999999999999999999",
    "-99999999999999999999", "1e20", "-7", "1.5", "0.5", "-0.25", ".5",
    "2.5e-3"};
const std::vector<std::string> kCounts = {
    "0", "5", "42", "1e3", "2.0", "1e15", "9007199254740993",
    "18446744073709551615"};

TEST(NumberRule, SortsTheCorpus) {
  // The library throws invalid_argument; the tools' flag parsers turn
  // the same verdict into UsageError. "" and "1,5" are left out of
  // kNotNumbers only because a list position skips the empty item and
  // reads "1,5" as two items.
  std::vector<std::string> not_numbers = kNotNumbers;
  not_numbers.insert(not_numbers.end(), {"", "1,5"});
  for (const std::string& text : not_numbers) {
    EXPECT_THROW(parse_number(text, "t"), std::invalid_argument) << text;
    EXPECT_THROW(parse_count(text, "n"), std::invalid_argument) << text;
    EXPECT_THROW(cli::parse_number(text, "--t"), cli::UsageError) << text;
    EXPECT_THROW(cli::parse_count(text, "--n"), cli::UsageError) << text;
  }
  for (const std::string& text : kNumbersNotCounts) {
    EXPECT_NO_THROW(parse_number(text, "t")) << text;
    EXPECT_THROW(parse_count(text, "n"), std::invalid_argument) << text;
    EXPECT_THROW(cli::parse_count(text, "--n"), cli::UsageError) << text;
  }
  for (const std::string& text : kCounts) {
    EXPECT_NO_THROW(parse_count(text, "n")) << text;
  }
  EXPECT_DOUBLE_EQ(parse_number(".5", "t"), 0.5);
  EXPECT_EQ(parse_count("1e3", "n"), 1000u);
  // All-digit text never goes through a double: 64-bit seeds round-trip.
  EXPECT_EQ(parse_count("9007199254740993", "n"), 9007199254740993u);
  EXPECT_EQ(parse_count("18446744073709551615", "n"),
            std::numeric_limits<std::uint64_t>::max());
  try {
    parse_number("fast", "--period");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad number for --period: 'fast'");
  }
}

TEST(Split, KeepsEmptyItemsAndHonoursEverySeparator) {
  using Items = std::vector<std::string>;
  EXPECT_EQ(split("a,b,,c", ","), (Items{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ","), (Items{""}));
  EXPECT_EQ(split(";;", ";"), (Items{"", "", ""}));
  EXPECT_EQ(split("a:w=bursty:1,2,3,4;b", ";"),
            (Items{"a:w=bursty:1,2,3,4", "b"}));
  EXPECT_EQ(split("x+y;z", ";+"), (Items{"x", "y", "z"}));
}

TEST(Split, NonemptyDropsEmptyItemsForTheListGrammars) {
  using Items = std::vector<std::string>;
  EXPECT_EQ(split_nonempty("a,b,,c", ","), (Items{"a", "b", "c"}));
  // ';' keeps comma-bearing items whole: the --tenants shape.
  EXPECT_EQ(split_nonempty("a:w=bursty:1,2,3,4;b", ";"),
            (Items{"a:w=bursty:1,2,3,4", "b"}));
  EXPECT_TRUE(split_nonempty("", ";").empty());
  EXPECT_TRUE(split_nonempty(";;", ";").empty());
}

TEST(SafeRate, NeverDividesByZeroOrReportsInf) {
  // A first progress tick can land inside the clock's resolution: the
  // rate must read "none yet", not inf/nan.
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(0.0, 2.0), 0.0);
}

// ------------------------------------------------------------- grammars

/// Parses one grammar and describes every value it read, so two
/// spellings of the same values describe the same.
using Reader = std::function<std::string(const std::string&)>;

template <typename... Values>
std::string describe(const Values&... values) {
  std::ostringstream out;
  out.precision(17);
  ((out << values << ' '), ...);
  return out.str();
}

const Reader kTenants = [](const std::string& text) {
  std::string out;
  for (const TenantSpec& t : parse_tenant_specs(text)) {
    out += describe(t.clients.value_or(0), t.shards.value_or(0),
                    t.epochs.value_or(0), t.period.value_or(0),
                    t.seed.value_or(0), t.weight.value_or(0),
                    t.sub_batch.value_or(0));
  }
  return out;
};
const Reader kWorkload = [](const std::string& text) {
  return make_workload(text)->name();
};
const Reader kPolicy = [](const std::string& text) {
  static const Instance instance = braess(true);
  return named_policy(text).make(instance, 0.1).name();
};
const Reader kFaults = [](const std::string& text) {
  const faults::FaultPlan plan = faults::parse_fault_plan(text);
  faults::FaultSchedule::materialize(plan, 7, 20);
  std::string out;
  for (const faults::FaultClause& c : plan.clauses) {
    out += describe(c.at.value_or(0), c.duration.value_or(0), c.tenant,
                    c.shard, c.slow_us, c.workers, c.stall_ms, c.shed);
  }
  return out;
};
/// A sweep axis list as sweep_cli reads --periods and --shards.
const Reader kNumberList = [](const std::string& text) {
  std::string out;
  for (const std::string& item : split_nonempty(text, ",")) {
    out += describe(cli::parse_number(item, "--periods"));
  }
  return out;
};
const Reader kCountList = [](const std::string& text) {
  std::string out;
  for (const std::string& item : split_nonempty(text, ",")) {
    out += describe(cli::parse_count(item, "--shards"));
  }
  return out;
};

/// Reads `text`; nullopt when the grammar rejects it the documented way.
std::optional<std::string> verdict(const Reader& read,
                                   const std::string& text) {
  try {
    return read(text);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  } catch (const cli::UsageError&) {
    return std::nullopt;
  }
}

/// One numeric position: `spec` with '@' where the token goes, whether
/// the position holds a count, and the grammar's own range check.
struct Position {
  const Reader& read;
  std::string spec;
  bool count;
  std::function<bool(double)> in_range = [](double) { return true; };
};

TEST(NumberRule, EveryPositionGivesTheSameVerdictAndValue) {
  const auto positive = [](double v) { return v > 0.0; };
  const auto non_negative = [](double v) { return v >= 0.0; };
  const std::vector<Position> positions = {
      {kCountList, "@", true},
      {kCountList, "1,,@", true},
      {kNumberList, "@", false},
      {kNumberList, "0.1,@", false},
      {kTenants, "a:clients=@", true},
      {kTenants, "a:shards=@", true},
      {kTenants, "a:epochs=@", true},
      {kTenants, "a:seed=@", true},
      {kTenants, "a:weight=@", true},
      {kTenants, "a:sub-batch=@", true},
      {kTenants, "a:period=@", false},
      {kWorkload, "poisson:@", false, positive},
      {kWorkload, "bursty:@,1,1,1", false, non_negative},
      {kWorkload, "bursty:1,@,1,1", false, non_negative},
      // A cycle of on + off epochs must be 1 .. 2^64 - 1 long.
      {kWorkload, "bursty:1,1,@,0", true, positive},
      {kWorkload, "bursty:1,1,1,@", true,
       [](double v) { return v < 0x1p64; }},
      {kWorkload, "diurnal:@,0.5,5", false, positive},
      {kWorkload, "diurnal:1,@,5", false, non_negative},
      {kWorkload, "diurnal:1,0.5,@", false, positive},
      {kWorkload, "closed-loop:@", true},
      {kWorkload, "closed-loop-lat:@,1", true},
      {kWorkload, "closed-loop-lat:10,@", false, positive},
      {kPolicy, "alpha:@", false, positive},
      {kPolicy, "logit:@", false, positive},
      {kPolicy, "relative-slack:@", false, non_negative},
      {kFaults, "brownout:shed=@", false,
       [](double v) { return v > 0.0 && v <= 1.0; }},
      {kFaults, "brownout:shed=0.5,at=@", true},
      {kFaults, "drop-telemetry:for=@", true, positive},
      {kFaults, "drop-telemetry:tenant=@", true,
       [](double v) { return v <= 0xFFFFFFFFp0; }},
      {kFaults, "slow:us=1,shard=@", true},
      {kFaults, "slow:shard=0,us=@", true, positive},
      {kFaults, "stall:ms=1,workers=@", true, positive},
      {kFaults, "stall:workers=1,ms=@", true, positive},
      {kFaults, "crash:at=@", true, positive},
  };
  std::vector<std::string> tokens = kNotNumbers;
  tokens.insert(tokens.end(), kNumbersNotCounts.begin(),
                kNumbersNotCounts.end());
  tokens.insert(tokens.end(), kCounts.begin(), kCounts.end());
  for (const Position& position : positions) {
    const auto at = [&](const std::string& token) {
      std::string text = position.spec;
      return text.replace(text.find('@'), 1, token);
    };
    for (const std::string& token : tokens) {
      SCOPED_TRACE(at(token));
      // The rule's reading of the token, respelled canonically.
      std::optional<std::string> canonical;
      double value = 0.0;
      try {
        char buffer[32];
        if (position.count) {
          const std::uint64_t count = parse_count(token, "rule");
          value = static_cast<double>(count);
          canonical = std::to_string(count);
        } else {
          value = parse_number(token, "rule");
          canonical = std::string(
              buffer, std::to_chars(buffer, buffer + 32, value).ptr);
          // to_chars writes "1e+30"; the rule spells it "1e30".
          std::erase(*canonical, '+');
        }
      } catch (const std::invalid_argument&) {
        // The rule rejects the token: every position must too.
      }
      const std::optional<std::string> got = verdict(position.read, at(token));
      if (canonical && position.in_range(value)) {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, position.read(at(*canonical)));
      } else {
        EXPECT_FALSE(got.has_value());
      }
    }
  }
}

/// One mutation of a valid spec: a byte flip, a truncation, or a bad
/// corpus token spliced over one of its numeric runs.
std::string mutate(std::string text, Rng& rng) {
  const std::size_t kind = rng.below(3);
  if (kind == 0 && !text.empty()) {
    text[rng.below(text.size())] = static_cast<char>(rng.below(256));
  } else if (kind == 1) {
    text.resize(rng.below(text.size() + 1));
  } else {
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    std::size_t begin = text.find_first_of("0123456789");
    while (begin != std::string::npos) {
      const std::size_t end = std::min(
          text.size(), text.find_first_not_of("0123456789.e-", begin));
      runs.emplace_back(begin, end);
      begin = text.find_first_of("0123456789", end);
    }
    if (!runs.empty()) {
      const auto [begin, end] = runs[rng.below(runs.size())];
      text.replace(begin, end - begin,
                   kBadCorpus[rng.below(kBadCorpus.size())]);
    }
  }
  return text;
}

TEST(GrammarFuzz, MutatedSpecsParseOrThrowInvalidArgument) {
  const std::vector<std::pair<Reader, std::vector<std::string>>> grammars = {
      {kTenants,
       {"a:workload=closed-loop:500,clients=500,shards=2;"
        "b:workload=bursty:40000,2000,3,2,weight=2,sub-batch=auto",
        "c:period=0.05,seed=18446744073709551615,epochs=1e3,sub-batch=250"}},
      {kWorkload,
       {"poisson:80000", "bursty:4000000,200000,3,2", "diurnal:100000,0.8,5",
        "closed-loop:200000", "closed-loop-lat:1000,0.05"}},
      {kPolicy,
       {"replicator", "alpha:0.5", "logit:10", "relative-slack:0.25", "safe"}},
      {kFaults,
       {"brownout:shed=0.25,at=1,for=2+slow:shard=0,us=20+"
        "stall:workers=1,ms=5,at=0,for=2",
        "crash:at=3;drop-telemetry:tenant=1", "none"}},
      {kNumberList, {"0.05,0.1", "2.5e-3"}},
      {kCountList, {"1,4,8", "18446744073709551615", "1e15"}},
  };
  Rng rng(20261017);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const auto& [read, seeds] : grammars) {
    for (const std::string& seed : seeds) {
      ASSERT_TRUE(verdict(read, seed).has_value()) << seed;
      for (int i = 0; i < 500; ++i) {
        const std::string text = mutate(seed, rng);
        try {
          ++(verdict(read, text) ? parsed : rejected);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "'" << text << "' threw " << e.what();
        }
      }
    }
  }
  // Both outcomes occur: the mutations reach past each grammar's front.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace staleflow
