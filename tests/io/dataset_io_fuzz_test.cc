// Differential fuzzing of the dataset parser against the line-at-a-time
// parser it replaced (tests/io/reference_dataset_io.h). A fixed-seed
// mutational fuzzer derives lines from the DatasetIoTest cases; lines
// both parsers accept must give bit-identical units, and every other
// disagreement must trace to one of the deliberate differences listed in
// the reference header.
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "io/dataset_io.h"
#include "io/reference_dataset_io.h"

namespace ufim {
namespace {

/// Lines of the DatasetIoTest cases, plus one of each deliberate
/// difference so that every class is reached from the first round.
const std::vector<std::string>& SeedLines() {
  static const std::vector<std::string> seeds = {
      "0:0.80000000000000004 5:0.25 17:1",
      "1:0.30000000000000004 2:0.33333333333333331",
      "abc", "1:", ":0.5", "1:0.5x", "x:0.5", "1:1.5", "1:-0.2", "1:nan",
      "1:-nan", "1:0.5 1:0.9", "3:0.2 1:0.5 1:0.9", "4294967296:0.25",
      "-1:0.5", "+7:0.5", "99999999999999999999999:0.5", "4294967295:0.5",
      "", "# header comment", "0:0.5 1:0.25", "2:1", "1:bad",
      "1:+0.5", "1:-0", "1:0x1p-1", "1:1e-310", "9:.5\t3:5e-1 7:1.\r"};
  return seeds;
}

/// Fragments that steer mutations toward the grammar's edges.
const std::vector<std::string>& Fragments() {
  static const std::vector<std::string> fragments = {
      " ", "\t", "\r", "\v", ":", ".", "e", "E", "e-", "e+", "+", "-", "0x",
      "0X", "p-1", "inf", "nan", "INF", "nan(1)", "infinity", "4294967295",
      "4294967296", "18446744073709551616", "1e-310", "1e-400", "1e400",
      "2.2250738585072011e-308", "0", "1", "00", "0.5", "#", "\f"};
  return fragments;
}

std::string Mutate(const std::string& line, Rng& rng) {
  static const char kAlphabet[] = "0123456789.:+-eExXpP nai\tf#\r";
  std::string s = line;
  const std::uint64_t rounds = rng.UniformInt(1, 4);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t pos = s.empty() ? 0 : rng.UniformInt(0, s.size());
    switch (rng.UniformInt(0, 5)) {
      case 0:  // insert a character
        s.insert(pos, 1, kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)]);
        break;
      case 1:  // delete a character
        if (pos < s.size()) s.erase(pos, 1);
        break;
      case 2:  // replace a character
        if (pos < s.size()) {
          s[pos] = kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
        }
        break;
      case 3: {  // insert a fragment
        const auto& f = Fragments();
        s.insert(pos, f[rng.UniformInt(0, f.size() - 1)]);
        break;
      }
      case 4: {  // splice with another seed
        const auto& seeds = SeedLines();
        const std::string& other = seeds[rng.UniformInt(0, seeds.size() - 1)];
        const std::size_t cut = other.empty() ? 0 : rng.UniformInt(0, other.size());
        s = s.substr(0, pos) + other.substr(cut);
        break;
      }
      default:  // duplicate a span
        if (pos < s.size()) {
          const std::size_t len = rng.UniformInt(1, s.size() - pos);
          s.insert(pos, s.substr(pos, len));
        }
        break;
    }
  }
  return s;
}

enum Difference { kSignedProb, kHexProb, kSubnormalProb, kNumDifferences };
const char* const kDifferenceNames[] = {"signed probability",
                                        "hex probability",
                                        "subnormal probability"};

/// The deliberate difference `token` (one whitespace-free unit) shows,
/// or kNumDifferences when it shows none.
Difference Classify(const std::string& token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) return kNumDifferences;
  const std::string prob = token.substr(colon + 1);
  if (!prob.empty() && (prob[0] == '+' || prob[0] == '-')) return kSignedProb;
  if (prob.size() >= 2 && prob[0] == '0' && (prob[1] == 'x' || prob[1] == 'X')) {
    return kHexProb;
  }
  // strtod flags a representable subnormal with ERANGE.
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(prob.c_str(), &end);
  if (errno == ERANGE && v != 0.0 && !std::isinf(v)) return kSubnormalProb;
  return kNumDifferences;
}

/// Same verdict: both accept with bit-identical units, or both reject
/// with the same code and message.
bool SameOutcome(const Result<Transaction>& a, const Result<Transaction>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) {
    return a.status().code() == b.status().code() &&
           a.status().message() == b.status().message();
  }
  if (a->size() != b->size()) return false;
  for (std::size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i].item != (*b)[i].item ||
        std::bit_cast<std::uint64_t>((*a)[i].prob) !=
            std::bit_cast<std::uint64_t>((*b)[i].prob)) {
      return false;
    }
  }
  return true;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out + "\"";
}

TEST(DatasetIoFuzzTest, ParserMatchesReferenceOnMutatedLines) {
  constexpr int kLines = 60000;
  Rng rng(20240611);
  int both_accept = 0;
  int both_reject = 0;
  int seen[kNumDifferences] = {};
  for (int n = 0; n < kLines; ++n) {
    const auto& seeds = SeedLines();
    const std::string line =
        n < static_cast<int>(seeds.size())
            ? seeds[n]
            : Mutate(seeds[rng.UniformInt(0, seeds.size() - 1)], rng);
    const Result<Transaction> have = ParseTransactionLine(line);
    const Result<Transaction> want = reference::ParseTransactionLine(line);
    if (SameOutcome(have, want)) {
      (have.ok() ? both_accept : both_reject) += 1;
      continue;
    }
    // The disagreement must start at a unit that differs on its own, and
    // that unit must show a deliberate difference.
    ASSERT_FALSE(have.ok() && want.ok())
        << "both accept but the units differ: " << Quoted(line);
    std::istringstream in(line);
    std::string token;
    Difference why = kNumDifferences;
    while (in >> token) {
      if (!SameOutcome(ParseTransactionLine(token),
                       reference::ParseTransactionLine(token))) {
        why = Classify(token);
        break;
      }
    }
    ASSERT_NE(why, kNumDifferences)
        << "undocumented difference on " << Quoted(line) << ": library "
        << (have.ok() ? "accepts" : have.status().ToString()) << ", reference "
        << (want.ok() ? "accepts" : want.status().ToString());
    ++seen[why];
  }
  // The corpus must exercise agreement on both sides and reach every
  // deliberate difference, or the comparison proves little.
  EXPECT_GT(both_accept, kLines / 20);
  EXPECT_GT(both_reject, kLines / 20);
  for (int d = 0; d < kNumDifferences; ++d) {
    EXPECT_GT(seen[d], 0) << kDifferenceNames[d] << " never reached";
  }
  std::printf("%d lines: %d both accept, %d both reject; differences: %d "
              "signed, %d hex, %d subnormal\n",
              kLines, both_accept, both_reject, seen[kSignedProb],
              seen[kHexProb], seen[kSubnormalProb]);
}

/// Reads `path` with both loaders and requires identical databases.
void ExpectSameDatabase(const std::string& path) {
  Result<UncertainDatabase> have = ReadDataset(path);
  Result<UncertainDatabase> want = reference::ReadDataset(path);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_EQ(have->size(), want->size());
  EXPECT_EQ(have->num_items(), want->num_items());
  for (std::size_t t = 0; t < want->size(); ++t) {
    const Transaction& a = (*have)[t];
    const Transaction& b = (*want)[t];
    ASSERT_EQ(a.size(), b.size()) << "transaction " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].item, b[i].item) << "transaction " << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].prob),
                std::bit_cast<std::uint64_t>(b[i].prob))
          << "transaction " << t;
    }
  }
}

TEST(DatasetIoFuzzTest, ReadDatasetMatchesReferenceOnGeneratedFiles) {
  const std::string path = testing::TempDir() + "/fuzz_generated.udb";
  ASSERT_TRUE(WriteDataset(AssignGaussianProbabilities(
                               MakeKosarakLike(3000, 5), 0.5, 0.5, 6),
                           path)
                  .ok());
  ExpectSameDatabase(path);
  ASSERT_TRUE(WriteDataset(AssignGaussianProbabilities(
                               MakeAccidentLike(1000, 5), 0.5, 0.5, 6),
                           path)
                  .ok());
  ExpectSameDatabase(path);
  std::remove(path.c_str());
}

TEST(DatasetIoFuzzTest, ReadDatasetMatchesReferenceOnLineEdgeCases) {
  // Comments, empty and whitespace-only lines, CRLF endings, unsorted
  // units, zero probabilities and a last line without a newline.
  const std::string path = testing::TempDir() + "/fuzz_edges.udb";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# comment\n\n   \n3:0.5 1:0.25\r\n\r\n 2:0 4:1e-3\t5:.5\n"
           "#\n7:1.\n \t# not a comment: a malformed unit follows\n";
  }
  EXPECT_FALSE(ReadDataset(path).ok());
  EXPECT_EQ(ReadDataset(path).status().message(),
            reference::ReadDataset(path).status().message());
  {
    std::ofstream out(path, std::ios::binary);
    out << "# comment\n\n   \n3:0.5 1:0.25\r\n\r\n 2:0 4:1e-3\t5:.5\n"
           "#\n7:1.\n8:0.125";
  }
  ExpectSameDatabase(path);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ufim
